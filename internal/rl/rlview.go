package rl

import (
	"math/rand"

	"autoview/internal/mvs"
	"autoview/internal/obs"
)

// RLView loop metrics (Algorithm 2): episode progress, the decaying
// exploration rate, the replay-pool size, and how many z-flips each
// episode takes before terminating.
var (
	obsEpisodes   = obs.Default.Counter("rl.episodes", "RLView episodes completed")
	obsFlips      = obs.Default.Counter("rl.flips", "environment steps (z-flips) taken")
	obsEpsilon    = obs.Default.Gauge("rl.epsilon", "exploration rate of the current episode")
	obsReplaySize = obs.Default.Gauge("rl.replay.size", "experiences in the replay memory")
	obsEpFlips    = obs.Default.Histogram("rl.episode.flips", "z-flips per episode", 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
)

const (
	// epsilon0 is the behaviour policy's initial exploration rate. The
	// paper's pseudocode acts greedily; a small ε is the standard DQN
	// exploration and decays linearly to 0 across epochs.
	epsilon0 = 0.1
	// maxStepsFactor bounds an episode at maxStepsFactor·|Z| steps —
	// Algorithm 2 terminates an episode when t ≥ |Z| and the reward
	// stops improving; the factor caps pathological runs.
	maxStepsFactor = 2
)

// Options configures RLView (Algorithm 2).
type Options struct {
	// InitIterations is n1, the IterView warm-start budget.
	InitIterations int
	// Epochs is n2, the number of RL episodes.
	Epochs int
	// MemoryThreshold is nm: online fine-tuning starts once the replay
	// memory reaches this size.
	MemoryThreshold int
	// LearnEvery fine-tunes the DQN every k environment steps (default
	// 1, the paper's per-step update; larger values trade fidelity for
	// speed on big instances).
	LearnEvery int
	// UniformExploration makes the ε-arm pick uniformly random actions
	// instead of sampling Equation 3's flip probabilities (ablation).
	UniformExploration bool
	// Agent carries the DQN hyper-parameters (γ, lr, batch size).
	Agent AgentConfig
	// Rand drives exploration and warm start.
	Rand *rand.Rand
	// Pretrained, when non-nil, is used instead of a fresh agent
	// (offline-trained DQN being fine-tuned online).
	Pretrained *Agent
}

func (o Options) withDefaults() Options {
	if o.InitIterations <= 0 {
		o.InitIterations = 10
	}
	if o.Epochs <= 0 {
		o.Epochs = 90
	}
	if o.MemoryThreshold <= 0 {
		o.MemoryThreshold = 20
	}
	if o.LearnEvery <= 0 {
		o.LearnEvery = 1
	}
	return o
}

// Result is the outcome of an RLView run.
type Result struct {
	// Best is the best assignment seen anywhere in the run (including
	// the warm start).
	Best        *mvs.State
	BestUtility float64
	// Final is the last episode's final state.
	Final *mvs.State
	// Trace records utility after every environment step across all
	// epochs, prefixed by the warm start's trace (Figure 10 compares
	// these per-iteration utilities against IterView's).
	Trace []float64
	// Steps counts environment transitions.
	Steps int
	// Agent is the (fine-tuned) DQN; Agent.Memory() is the run's replay
	// pool, which SaveReplay persists for offline training.
	Agent *Agent
}

// RLView implements Algorithm 2: warm-start with IterView, then run n2
// episodes where the DQN picks which z_j to flip, the Y-Opt ILP solver
// plays the environment, and the reward is the utility change. The DQN is
// fine-tuned online from experience replay once the memory reaches nm.
func RLView(in *mvs.Instance, opts Options) *Result {
	opts = opts.withDefaults()
	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}

	// Line 2: warm start.
	warm := mvs.IterView(in, mvs.IterOptions{Iterations: opts.InitIterations, Rand: rng})
	z0 := warm.Best

	// Lines 4-5: replay memory and DQN initialization.
	agent := opts.Pretrained
	if agent == nil {
		agent = NewAgent(opts.Agent, rng)
	}

	nv := in.NumViews()
	bmax := in.MaxBenefits()
	var omax, bmaxSum float64
	for _, o := range in.Overhead {
		omax += o
	}
	for _, b := range bmax {
		bmaxSum += b
	}

	res := &Result{Agent: agent}
	res.Trace = append(res.Trace, warm.Trace...)
	res.Best = z0.Clone()
	res.BestUtility = in.Utility(z0)

	maxSteps := maxStepsFactor * nv
	if maxSteps < 1 {
		maxSteps = 1
	}

	for ep := 0; ep < opts.Epochs; ep++ {
		epsilon := epsilon0 * (1 - float64(ep)/float64(opts.Epochs))
		obsEpsilon.Set(epsilon)
		// Line 7: e_0 = ⟨Z_0, Y_0⟩.
		st := z0.Clone()
		y, bcur := in.BestY(st.Z)
		st.Y = y
		used := newUsedViews(y)
		rPrev := used.utility(in, st.Z)

		feats := Features(in, st, bcur, bmax, omax, bmaxSum)
		var lastReward float64
		for t := 0; ; t++ {
			// Line 10: a_t = argmax Q(e_t). The ε-exploration arm
			// samples from Equation 3's flip probabilities, so
			// exploration follows IterView's proposal distribution
			// rather than uniform noise.
			var action int
			switch {
			case rng.Float64() >= epsilon:
				action = agent.BestAction(feats)
			case opts.UniformExploration:
				action = rng.Intn(nv)
			default:
				action = sampleFlip(rng, mvs.FlipProbabilities(in, st, bcur))
			}
			// Lines 10-12: flip and let the ILP solver respond.
			st.Z[action] = !st.Z[action]
			in.RecomputeYForView(st, bcur, action)
			used.refresh(in, st.Y, action)
			rNext := used.utility(in, st.Z)
			lastReward = rNext - rPrev

			nextFeats := Features(in, st, bcur, bmax, omax, bmaxSum)
			terminal := !(t+1 < nv || lastReward > 0) || t+1 >= maxSteps
			// Line 14: store the experience.
			agent.Remember(Experience{
				Taken:     feats[action],
				Reward:    lastReward,
				NextState: nextFeats,
				Terminal:  terminal,
			})
			// Line 17: fine-tune once the pool is large enough.
			if agent.MemoryLen() >= opts.MemoryThreshold && res.Steps%opts.LearnEvery == 0 {
				agent.Learn()
			}

			res.Steps++
			res.Trace = append(res.Trace, rNext)
			if rNext > res.BestUtility {
				res.BestUtility = rNext
				res.Best = st.Clone()
			}
			rPrev = rNext
			feats = nextFeats
			if terminal {
				obsEpisodes.Inc()
				obsFlips.Add(int64(t + 1))
				obsEpFlips.Observe(float64(t + 1))
				obsReplaySize.Set(float64(agent.MemoryLen()))
				break
			}
		}
		res.Final = st
	}
	if res.Final == nil {
		res.Final = z0.Clone()
	}
	return res
}

// usedViews lists, per query, the views an episode's state uses — the
// true entries of its Y rows, ascending — so the reward sums the used
// benefits instead of scanning |Q|×|Z| booleans on every step. It
// belongs to the episode loop, which refreshes it after each
// RecomputeYForView, not to mvs.State, where a direct write to Y would
// leave it stale.
type usedViews [][]int

func newUsedViews(y [][]bool) usedViews {
	u := make(usedViews, len(y))
	for i, row := range y {
		u.set(i, row)
	}
	return u
}

func (u usedViews) set(i int, row []bool) {
	u[i] = u[i][:0]
	for j, used := range row {
		if used {
			u[i] = append(u[i], j)
		}
	}
}

// refresh re-reads the rows RecomputeYForView(st, bcur, j) may have
// changed: those of the queries view j can serve.
func (u usedViews) refresh(in *mvs.Instance, y [][]bool, j int) {
	for i, row := range in.Benefit {
		if row[j] > 0 {
			u.set(i, y[i])
		}
	}
}

// utility is mvs.Instance.Utility of the state u mirrors: the same terms
// in the same row-major order, so the same float64.
func (u usedViews) utility(in *mvs.Instance, z []bool) float64 {
	var total float64
	for i, js := range u {
		for _, j := range js {
			total += in.Benefit[i][j]
		}
	}
	for j, set := range z {
		if set {
			total -= in.Overhead[j]
		}
	}
	return total
}

// sampleFlip draws an action proportional to the flip probabilities,
// falling back to uniform when all probabilities vanish.
func sampleFlip(rng *rand.Rand, probs []float64) int {
	var total float64
	for _, p := range probs {
		total += p
	}
	if total <= 0 {
		return rng.Intn(len(probs))
	}
	r := rng.Float64() * total
	for j, p := range probs {
		r -= p
		if r <= 0 {
			return j
		}
	}
	return len(probs) - 1
}
