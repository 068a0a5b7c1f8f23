// Package rl implements the paper's reinforcement-learning view selection
// (Section V-B): the iterative ILP optimization is cast as an MDP whose
// state is e=⟨Z,Y⟩, whose actions flip one z_j, whose environment is the
// Y-Opt ILP solver, and whose reward is the utility change. A DQN with
// four fully connected layers (16, 64, 16, 1 neurons, ReLU) predicts
// Q(e,a); RLView (Algorithm 2) initializes from IterView and fine-tunes
// the network online from an experience-replay memory.
//
// The DQN is float64 end to end, with two forwards: nn.MLP.Forward
// (tape, for the Learn update) and nn.MLP.InferBatch (forward-only over
// all of a state's actions at once, and bit-identical — action scoring
// and the bootstrap target share it).
package rl

import (
	"math"
	"math/rand"

	"autoview/internal/mvs"
	"autoview/internal/nn"
	"autoview/internal/obs"
)

// DQN update metrics: one rl.learn.count tick (and, when obs is enabled,
// one rl.learn span observation) per replay-batch update.
var (
	obsLearnCount = obs.Default.Counter("rl.learn.count", "DQN replay-batch updates")
	obsLearnLoss  = obs.Default.Gauge("rl.learn.loss", "mean loss of the last DQN update")
)

// memoryCap bounds the replay buffer; Remember evicts the oldest past it.
const memoryCap = 50_000

// FeatureDim is the width of the per-action (e,a) feature vector fed to
// the Q-network. The paper's tiny layer sizes (16-64-16-1) imply a compact
// featurized input rather than raw |Z|+|Q|·|Z| bits; we encode the action's
// view statistics plus global state summaries.
const FeatureDim = 10

// Features computes the (e, a_j) input for every action j. st/bcur
// describe the current state; in supplies the constants.
func Features(in *mvs.Instance, st *mvs.State, bcur []float64, bmax []float64, omax, bmaxSum float64) [][]float64 {
	nv := in.NumViews()
	var ocur, bcurSum float64
	selected := 0
	for j, z := range st.Z {
		if z {
			ocur += in.Overhead[j]
			selected++
		}
		bcurSum += bcur[j]
	}
	utility := bcurSum - ocur
	scale := bmaxSum
	if scale <= 0 {
		scale = 1
	}
	// One backing array for all rows; the capped slices cannot grow
	// into their neighbours.
	out := make([][]float64, nv)
	buf := make([]float64, nv*FeatureDim)
	for j := 0; j < nv; j++ {
		z := 0.0
		if st.Z[j] {
			z = 1
		}
		row := buf[j*FeatureDim : (j+1)*FeatureDim : (j+1)*FeatureDim]
		copy(row, []float64{
			z,
			safeRatio(in.Overhead[j], omax),
			safeRatio(bmax[j], bmaxSum),
			safeRatio(bcur[j], bcurSum),
			(bmax[j] - in.Overhead[j]) / scale,
			safeRatio(ocur, omax),
			safeRatio(bcurSum, bmaxSum),
			float64(selected) / float64(nv),
			utility / scale,
			1, // bias
		})
		out[j] = row
	}
	return out
}

func safeRatio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// Experience is one replay tuple ⟨e_t, a_t, r_t, e_{t+1}⟩, stored as what
// Learn reads: the feature row of the action taken in e_t, and the
// per-action feature matrix of e_{t+1} the bootstrap maximizes over. The
// JSON tags are the persisted form (SaveReplay, LoadReplay).
type Experience struct {
	Taken     []float64   `json:"taken"`
	Reward    float64     `json:"reward"`
	NextState [][]float64 `json:"next_state"`
	Terminal  bool        `json:"terminal"`
}

// AgentConfig configures the DQN.
type AgentConfig struct {
	Gamma     float64 // reward decay rate γ
	LearnRate float64
	BatchSize int
	// Parallelism is the number of workers per replay mini-batch
	// (nn.Trainer); a greedy action sweep (BestAction, QValues) is one
	// batched forward on the caller's goroutine. 0 selects
	// runtime.NumCPU(); 1 runs serially. Results are bit-for-bit
	// identical for every setting.
	Parallelism int
	Seed        int64
}

func (c AgentConfig) withDefaults() AgentConfig {
	if c.Gamma <= 0 {
		c.Gamma = 0.9
	}
	if c.LearnRate <= 0 {
		c.LearnRate = 0.001
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	return c
}

// Agent is the DQN: μ(e,a|θ) implemented with four fully connected layers
// of 16, 64, 16 and 1 neurons (Section V-B2).
type Agent struct {
	Net *nn.MLP
	Cfg AgentConfig

	opt *nn.Adam
	mem []Experience
	rng *rand.Rand

	// trainer shards replay-batch gradient computation (lazily built);
	// batch and batchN stage the sampled experiences for its workers.
	trainer *nn.Trainer
	batch   []Experience
	batchN  float64

	// arenas pools inference scratch for the forward-only Q evaluation
	// fast path (action scoring and the Learn bootstrap target, which
	// the trainer's workers evaluate concurrently).
	arenas nn.ArenaPool
}

// newQNet builds the paper's four-layer Q-network (16-64-16-1, ReLU).
func newQNet(rng *rand.Rand) *nn.MLP {
	return nn.NewMLP("dqn", []int{FeatureDim, 16, 64, 16, 1}, rng)
}

// NewAgent allocates an initialized agent.
func NewAgent(cfg AgentConfig, rng *rand.Rand) *Agent {
	cfg = cfg.withDefaults()
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	a := &Agent{
		Net: newQNet(rng),
		Cfg: cfg,
		opt: nn.NewAdam(cfg.LearnRate),
		rng: rng,
	}
	a.opt.Clip = 1
	return a
}

// maxQ scores every action of one state with the network in one batched
// forward (nn.MLP.InferBatch) on one pooled arena and returns the first
// best action and its value (0 and -Inf without actions). A non-nil out
// receives every value. Action scoring and the Learn bootstrap both go
// through it.
func (a *Agent) maxQ(feats [][]float64, out []float64) (best int, bestQ float64) {
	bestQ = math.Inf(-1)
	ar := a.arenas.Get()
	ar.Reset()
	q := out
	if q == nil {
		q = ar.Vec(len(feats))
	}
	a.Net.InferBatch(q, feats, ar)
	for j, v := range q {
		if v > bestQ {
			best, bestQ = j, v
		}
	}
	a.arenas.Put(ar)
	return best, bestQ
}

// QValues evaluates the Q-vector Q(e) = [μ(e,a_1), ..., μ(e,a_n)].
func (a *Agent) QValues(feats [][]float64) []float64 {
	out := make([]float64, len(feats))
	a.maxQ(feats, out)
	return out
}

// BestAction returns argmax_i Q(e)[i], the lowest index on a tie.
func (a *Agent) BestAction(feats [][]float64) int {
	best, _ := a.maxQ(feats, nil)
	return best
}

// Remember appends an experience, evicting the oldest past capacity.
func (a *Agent) Remember(e Experience) {
	a.mem = append(a.mem, e)
	if len(a.mem) > memoryCap {
		a.mem = a.mem[len(a.mem)-memoryCap:]
	}
}

// MemoryLen returns the replay buffer size.
func (a *Agent) MemoryLen() int { return len(a.mem) }

// Memory returns the replay buffer (shared slice; callers must not
// mutate) — the pool SaveReplay persists and OfflineTrain learns from.
func (a *Agent) Memory() []Experience { return a.mem }

// Learn runs one DQN update (the paper's function DQN): sample a batch,
// compute Q'(e_t,a_t) = r_t + γ·max_i Q(e_{t+1})[i], and minimize the
// squared error against Q(e_t,a_t). The batch is sampled serially (so
// RNG consumption matches the serial implementation) and its gradients
// are computed data-parallel across the trainer's workers. It returns
// the mean batch loss.
func (a *Agent) Learn() float64 {
	if len(a.mem) == 0 {
		return 0
	}
	defer obs.StartSpan("rl.learn")()
	n := a.Cfg.BatchSize
	if n > len(a.mem) {
		n = len(a.mem)
	}
	if a.trainer == nil {
		a.trainer = nn.NewTrainer(a.Net.Params(), a.Cfg.Parallelism, a.bindWorker)
	}
	a.batch = a.batch[:0]
	for b := 0; b < n; b++ {
		a.batch = append(a.batch, a.mem[a.rng.Intn(len(a.mem))])
	}
	a.batchN = float64(n)
	loss := a.trainer.Step(n)
	a.opt.Step(a.Net.Params())
	obsLearnCount.Inc()
	obsLearnLoss.Set(loss / float64(n))
	return loss / float64(n)
}

// bindWorker builds one data-parallel training worker: a Q-network
// replica over shared weights plus the per-experience TD-error runner.
// The bootstrap target is read from the online network, as in the
// paper's pseudocode — pure reads, safe across workers.
func (a *Agent) bindWorker() ([]*nn.Param, nn.SampleFunc) {
	rep := a.Net.ShareWeights()
	run := func(i int) float64 {
		e := a.batch[i]
		target := e.Reward
		if !e.Terminal {
			_, best := a.maxQ(e.NextState, nil)
			target += a.Cfg.Gamma * best
		}
		y, back := rep.Forward(e.Taken)
		d := y[0] - target
		back(nn.Vec{2 * d / a.batchN})
		return d * d
	}
	return rep.Params(), run
}

// LearnFrom trains offline from an external replay dataset for the given
// number of updates (the paper's offline DQN training).
func (a *Agent) LearnFrom(data []Experience, updates int) float64 {
	saved := a.mem
	a.mem = data
	var last float64
	for i := 0; i < updates; i++ {
		last = a.Learn()
	}
	a.mem = saved
	return last
}
