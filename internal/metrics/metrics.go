// Package metrics provides the evaluation metrics of Section VI: MAE and
// MAPE for cost estimation, deterministic train/validation/test splits,
// and the utility ratios of Tables IV and V.
package metrics

import (
	"math"
	"math/rand"
)

// MAE is the mean absolute error (1/N)·Σ|y−ŷ|.
func MAE(y, yhat []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	var sum float64
	for i := range y {
		sum += math.Abs(y[i] - yhat[i])
	}
	return sum / float64(len(y))
}

// MAPE is the mean absolute percent error (1/N)·Σ|(y−ŷ)/y| in percent.
// Entries with y=0 are skipped (undefined relative error).
func MAPE(y, yhat []float64) float64 {
	var sum float64
	n := 0
	for i := range y {
		if y[i] == 0 { //lint:allow floateq exact zero guards division by zero
			continue
		}
		sum += math.Abs((y[i] - yhat[i]) / y[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// MAPEWithFloor is MAPE over the pairs whose true cost is at least 5%
// of the mean true cost. Near-zero costs make relative error meaningless
// (a $1e-6 rewrite estimated at $2e-6 is a 100% MAPE but a perfect
// decision signal), so they are excluded, as is standard practice.
func MAPEWithFloor(y, yhat []float64) float64 {
	var mean float64
	for _, v := range y {
		mean += v
	}
	if len(y) > 0 {
		mean /= float64(len(y))
	}
	floor := 0.05 * mean
	var yf, yhatf []float64
	for i, v := range y {
		if v >= floor {
			yf = append(yf, v)
			yhatf = append(yhatf, yhat[i])
		}
	}
	return MAPE(yf, yhatf)
}

// Split partitions indices [0,n) into train/validation/test parts with the
// given proportions (e.g. 7:1:2), shuffled deterministically by seed.
func Split(n int, trainFrac, valFrac float64, seed int64) (train, val, test []int) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	nTrain := int(float64(n) * trainFrac)
	nVal := int(float64(n) * valFrac)
	if nTrain > n {
		nTrain = n
	}
	if nTrain+nVal > n {
		nVal = n - nTrain
	}
	return idx[:nTrain], idx[nTrain : nTrain+nVal], idx[nTrain+nVal:]
}

// UtilityRatio is Table IV's ratio: the maximum utility over the total
// workload cost, in percent.
func UtilityRatio(utility, totalCost float64) float64 {
	if totalCost <= 0 {
		return 0
	}
	return 100 * utility / totalCost
}

// SavedCostRatio is Table V's r_c = (b_{q|v} − o_m) / c_q in percent: the
// rewriting benefit minus the materialization overhead, over the raw
// workload cost.
func SavedCostRatio(benefit, overhead, rawCost float64) float64 {
	if rawCost <= 0 {
		return 0
	}
	return 100 * (benefit - overhead) / rawCost
}

// Improvement is the paper's headline relative improvement
// (r_new − r_old)/r_old · 100%.
func Improvement(rNew, rOld float64) float64 {
	if rOld == 0 { //lint:allow floateq exact zero guards division by zero
		return 0
	}
	return 100 * (rNew - rOld) / rOld
}
