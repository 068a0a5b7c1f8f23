package rl

import (
	"fmt"

	"autoview/internal/catalog"
)

// ToMetadata flattens a replay tuple for the metadata database (the paper
// stores the memory pool M there for offline DQN training).
func ToMetadata(e Experience) catalog.Experience {
	return catalog.Experience{
		State:     flatten(e.State),
		Action:    e.Action,
		Reward:    e.Reward,
		NextState: flatten(e.NextState),
		Terminal:  e.Terminal,
	}
}

// FromMetadata reshapes a stored tuple back into per-action feature
// matrices. The action count is recovered from the vector length.
func FromMetadata(ce catalog.Experience) (Experience, error) {
	state, err := unflatten(ce.State)
	if err != nil {
		return Experience{}, fmt.Errorf("rl: state: %w", err)
	}
	next, err := unflatten(ce.NextState)
	if err != nil {
		return Experience{}, fmt.Errorf("rl: next state: %w", err)
	}
	return Experience{
		State:     state,
		Action:    ce.Action,
		Reward:    ce.Reward,
		NextState: next,
		Terminal:  ce.Terminal,
	}, nil
}

func flatten(m [][]float64) []float64 {
	out := make([]float64, 0, len(m)*FeatureDim)
	for _, row := range m {
		out = append(out, row...)
	}
	return out
}

func unflatten(flat []float64) ([][]float64, error) {
	if len(flat)%FeatureDim != 0 {
		return nil, fmt.Errorf("length %d is not a multiple of %d", len(flat), FeatureDim)
	}
	n := len(flat) / FeatureDim
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		// Capped like Features' rows: an append cannot grow a row into
		// the next one.
		out[i] = flat[i*FeatureDim : (i+1)*FeatureDim : (i+1)*FeatureDim]
	}
	return out, nil
}

// PersistMemory appends the agent's replay buffer to the metadata
// database.
func (a *Agent) PersistMemory(db *catalog.MetadataDB) {
	for _, e := range a.mem {
		db.AddExperience(ToMetadata(e))
	}
}

// OfflineTrain builds an agent and trains it from the metadata database's
// stored replay pool for the given number of updates — the paper's
// offline DQN training, after which the agent is fine-tuned online by
// passing it as Options.Pretrained to RLView.
func OfflineTrain(db *catalog.MetadataDB, cfg AgentConfig, updates int) (*Agent, error) {
	stored := db.Experiences()
	if len(stored) == 0 {
		return nil, fmt.Errorf("rl: metadata database holds no experiences")
	}
	data := make([]Experience, 0, len(stored))
	for _, ce := range stored {
		e, err := FromMetadata(ce)
		if err != nil {
			return nil, err
		}
		data = append(data, e)
	}
	agent := NewAgent(cfg, nil)
	agent.LearnFrom(data, updates)
	return agent, nil
}
