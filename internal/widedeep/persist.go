package widedeep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"autoview/internal/featenc"
	"autoview/internal/nn"
)

// snapshot is the on-disk form of a trained model: scaling state plus the
// parameter blob. The architecture itself is reconstructed by the caller
// (New with the same vocabulary and Config — both deterministic), keeping
// the format simple and forward-compatible.
type snapshot struct {
	YMean  float64             `json:"y_mean"`
	YStd   float64             `json:"y_std"`
	Norm   *featenc.Normalizer `json:"normalizer"`
	Params json.RawMessage     `json:"params"`
}

// Save persists the trained model's weights and scaling state.
func (m *Model) Save(w io.Writer) error {
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, m.Params()); err != nil {
		return err
	}
	snap := snapshot{YMean: m.yMean, YStd: m.yStd, Norm: m.Norm, Params: buf.Bytes()}
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("widedeep: save: %w", err)
	}
	return nil
}

// Load restores weights saved by Save into a model built with the same
// vocabulary and Config. The scaling state is validated before anything
// is written: a checkpoint is operator-supplied input (viewserverd's
// POST /v1/admin/model), and a normalizer of the wrong width would
// otherwise load cleanly and index out of range inside the next
// Predict. A file rejected for its scaling state leaves weights, scale
// and the f32 mirror as they were.
func (m *Model) Load(r io.Reader) error {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("widedeep: load: %w", err)
	}
	if err := snap.validate(); err != nil {
		return fmt.Errorf("widedeep: load: %w", err)
	}
	if err := nn.LoadParams(bytes.NewReader(snap.Params), m.Params()); err != nil {
		return err
	}
	m.yMean, m.yStd = snap.YMean, snap.YStd
	if m.yStd == 0 { //lint:allow floateq zero std is the degenerate-snapshot sentinel
		m.yStd = 1
	}
	m.Norm = snap.Norm
	m.InvalidateKernels() // loaded weights obsolete any cached f32 mirror
	return nil
}

// validate rejects scaling state the forward passes cannot use: they
// index Mean and Std by featenc.NumericDim and divide by Std.
func (s *snapshot) validate() error {
	if s.Norm == nil {
		return errors.New("checkpoint has no normalizer")
	}
	if len(s.Norm.Mean) != featenc.NumericDim || len(s.Norm.Std) != featenc.NumericDim {
		return fmt.Errorf("normalizer has %d means and %d stds, want %d of each",
			len(s.Norm.Mean), len(s.Norm.Std), featenc.NumericDim)
	}
	for i, sd := range s.Norm.Std {
		if !(sd > 0) || math.IsInf(sd, 0) {
			return fmt.Errorf("normalizer std[%d] = %v, want finite and positive", i, sd)
		}
	}
	if math.IsNaN(s.YStd) || math.IsInf(s.YStd, 0) {
		return fmt.Errorf("y_std = %v, want finite", s.YStd)
	}
	return nil
}
