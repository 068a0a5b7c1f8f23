// Offlinetraining demonstrates the paper's offline/online split (Fig. 3):
// a first advisory run returns its DQN replay pool (Selection.Replay);
// the caller persists it (rl.SaveReplay); a later run loads it
// (rl.LoadReplay), pretrains a DQN offline from it (rl.OfflineTrain),
// hands that agent over as Config.RL.Pretrained and fine-tunes online,
// converging with less exploration.
package main

import (
	"bytes"
	"fmt"
	"log"

	"autoview/internal/core"
	"autoview/internal/engine"
	"autoview/internal/rl"
	"autoview/internal/workload"
)

func main() {
	w := workload.WK(workload.WKParams{
		Name: "offline-demo", Projects: 6, FactsPerProject: 2, DimsPerProject: 1,
		Queries: 120, FragsPerProject: 3, Skew: 1.2, ThreeWayFraction: 0.2,
		RowSkew: 1.5, UniqueFraction: 0.3, Seed: 909,
	})
	cfg := core.WKConfig()
	cfg.Estimator = core.EstimatorActual
	cfg.RL.Epochs = 15
	cfg.RL.LearnEvery = 2

	// --- Day 1: advise, collecting experiences -------------------------
	adv1 := core.NewAdvisor(w.Cat, engine.New(w.Populate()), cfg)
	pre := adv1.Preprocess(w.Plans())
	p1, err := adv1.BuildProblem(w.Plans(), pre)
	if err != nil {
		log.Fatal(err)
	}
	sel1, err := adv1.Select(p1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 1: RLView selected %d views (utility $%.4f), %d experiences collected\n",
		countTrue(sel1.Z), sel1.Utility, len(sel1.Replay))

	// Persist the replay pool, as the paper's system stores the memory
	// pool between sessions.
	var store bytes.Buffer
	if err := rl.SaveReplay(&store, sel1.Replay); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay pool persisted (%d bytes)\n", store.Len())

	// --- Day 2: fresh advisor, pretrained from the stored pool ---------
	pool, err := rl.LoadReplay(&store)
	if err != nil {
		log.Fatal(err)
	}
	cfg.RL.Pretrained, err = rl.OfflineTrain(pool, cfg.RL.Agent, 300)
	if err != nil {
		log.Fatal(err)
	}
	cfg.RL.Epochs = 8 // fewer online episodes, thanks to pretraining
	adv2 := core.NewAdvisor(w.Cat, engine.New(w.Populate()), cfg)
	p2, err := adv2.BuildProblem(w.Plans(), pre)
	if err != nil {
		log.Fatal(err)
	}
	sel2, err := adv2.Select(p2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("day 2: pretrained RLView selected %d views (utility $%.4f) with %d online epochs\n",
		countTrue(sel2.Z), sel2.Utility, adv2.Cfg.RL.Epochs)

	rep, err := adv2.Apply(p2, sel2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("end-to-end:", rep)
}

func countTrue(z []bool) int {
	n := 0
	for _, b := range z {
		if b {
			n++
		}
	}
	return n
}
