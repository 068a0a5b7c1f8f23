package rl

import (
	"encoding/json"
	"fmt"
	"io"
)

// SaveReplay writes a replay pool (Agent.Memory()) as JSON — the paper
// keeps the memory pool M between sessions for offline DQN training.
func SaveReplay(w io.Writer, pool []Experience) error {
	if err := json.NewEncoder(w).Encode(pool); err != nil {
		return fmt.Errorf("rl: save replay: %w", err)
	}
	return nil
}

// LoadReplay reads a pool written by SaveReplay and rejects what Learn
// cannot train from: a feature row whose width is not FeatureDim, and a
// non-terminal experience without a next state (its bootstrap would be
// -Inf). Non-finite numbers have no JSON spelling; the decoder rejects
// out-of-range ones.
func LoadReplay(r io.Reader) ([]Experience, error) {
	var pool []Experience
	if err := json.NewDecoder(r).Decode(&pool); err != nil {
		return nil, fmt.Errorf("rl: load replay: %w", err)
	}
	for i, e := range pool {
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("rl: load replay: experience %d: %w", i, err)
		}
	}
	return pool, nil
}

// validate reports why Learn could not train from e.
func (e Experience) validate() error {
	if len(e.Taken) != FeatureDim {
		return fmt.Errorf("taken action has %d features, want %d", len(e.Taken), FeatureDim)
	}
	if !e.Terminal && len(e.NextState) == 0 {
		return fmt.Errorf("non-terminal without a next state")
	}
	for j, row := range e.NextState {
		if len(row) != FeatureDim {
			return fmt.Errorf("next-state action %d has %d features, want %d", j, len(row), FeatureDim)
		}
	}
	return nil
}

// OfflineTrain builds an agent and trains it from a stored replay pool
// for the given number of updates — the paper's offline DQN training,
// after which the agent is fine-tuned online by passing it as
// Options.Pretrained to RLView.
func OfflineTrain(pool []Experience, cfg AgentConfig, updates int) (*Agent, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("rl: offline training needs a non-empty replay pool")
	}
	agent := NewAgent(cfg, nil)
	agent.LearnFrom(pool, updates)
	return agent, nil
}
