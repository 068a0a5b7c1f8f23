package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"autoview/internal/durable"
	"autoview/internal/featenc"
	"autoview/internal/obs"
	"autoview/internal/plan"
	"autoview/internal/widedeep"
)

// ckptFormatVersion guards the serve checkpoint schema: the W-D weight
// blob wrapped with the vocabulary it was trained over (the architecture
// is rebuilt deterministically from vocab + config, so the pair is all a
// restore needs to reproduce the model bit-exactly).
const ckptFormatVersion = 1

type checkpointFile struct {
	FormatVersion int             `json:"format_version"`
	VocabWords    []string        `json:"vocab_words"`
	Scale         float64         `json:"scale"`
	Version       int             `json:"version"`
	Model         json.RawMessage `json:"model"`
}

// saveCheckpoint persists a swapped-in model to the data directory under
// name, atomically (tmp + fsync + rename): recovery either sees the
// whole checkpoint or none.
func (s *Server) saveCheckpoint(name string, m *model) error {
	var buf bytes.Buffer
	if err := m.m.Save(&buf); err != nil {
		return err
	}
	ck := checkpointFile{
		FormatVersion: ckptFormatVersion,
		VocabWords:    m.m.Enc.Vocab.Words(),
		Scale:         m.scale,
		Version:       m.version,
		Model:         buf.Bytes(),
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	final := filepath.Join(s.dur.Dir(), name)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		_ = os.Remove(tmp) // best effort; the write already failed
		return werr
	}
	return os.Rename(tmp, final)
}

// loadCheckpoint rebuilds a model from a checkpoint written by
// saveCheckpoint: the architecture comes from the persisted vocabulary
// plus this server's W-D config and seed (both deterministic), and the
// weights overwrite it, so estimates after restore are bit-identical to
// the pre-crash model's.
func (s *Server) loadCheckpoint(path string) (*widedeep.Model, float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, 0, fmt.Errorf("checkpoint %s: %w", filepath.Base(path), err)
	}
	if ck.FormatVersion != ckptFormatVersion {
		return nil, 0, fmt.Errorf("checkpoint %s: format version %d (this build reads %d)",
			filepath.Base(path), ck.FormatVersion, ckptFormatVersion)
	}
	vocab := featenc.NewVocabFromWords(ck.VocabWords)
	m := widedeep.New(vocab, s.adv.Cfg.WDModel, rand.New(rand.NewSource(s.adv.Cfg.Seed)))
	if err := m.Load(bytes.NewReader(ck.Model)); err != nil {
		return nil, 0, fmt.Errorf("checkpoint %s: %w", filepath.Base(path), err)
	}
	return m, ck.Scale, nil
}

// persistModel saves next's checkpoint and logs the model record. The
// caller holds durMu (the store + record pair must be atomic against
// snapshot capture) and has already published next. On checkpoint-save
// failure the swap stays in memory only: serving continues on the new
// weights, recovery falls back to the previous durable model, and the
// failure is loud in the event log.
func (s *Server) persistModel(next *model) {
	if s.dur == nil {
		return
	}
	name := durable.ModelCheckpointName(next.version)
	if err := s.saveCheckpoint(name, next); err != nil {
		obs.Error("serve.durable", "event", "checkpoint_save_failed", "version", next.version, "err", err)
		return
	}
	rec := durable.ModelRecord{Path: name, Scale: next.scale, Version: next.version}
	if err := s.dur.AppendModel(rec); err != nil {
		obs.Error("serve.durable", "event", "model_record_failed", "version", next.version, "err", err)
	}
}

// restore rebuilds the serving state a recovered durable.State describes:
// the rolling window re-parsed from its original SQL (plan parsing is
// deterministic, so the window is byte-identical to the pre-crash one),
// the versioned view set, and the model loaded from its checkpoint.
func (s *Server) restore(st *durable.State) error {
	defer obs.StartSpan("serve.restore")()
	plans := make([]*plan.Node, len(st.WindowSQL))
	for i, sql := range st.WindowSQL {
		n, err := plan.Parse(sql, s.adv.Cat)
		if err != nil {
			return fmt.Errorf("serve: restore window[%d]: %w", i, err)
		}
		plans[i] = n
	}
	s.window.Restore(plans, st.WindowSQL, st.WindowTotal)

	if st.ModelPath != "" {
		m, scale, err := s.loadCheckpoint(filepath.Join(s.dur.Dir(), st.ModelPath))
		if err != nil {
			return fmt.Errorf("serve: restore model: %w", err)
		}
		if st.ModelScale > 0 {
			// The WAL record is the authority on the published scale (a
			// hot-reload can override the checkpoint's).
			scale = st.ModelScale
		}
		s.model.Store(s.newModel(m, scale, st.ModelVersion))
		obsModelVer.Set(float64(st.ModelVersion))
	}

	if len(st.ViewSet) > 0 {
		var vs ViewSet
		if err := json.Unmarshal(st.ViewSet, &vs); err != nil {
			return fmt.Errorf("serve: restore view set: %w", err)
		}
		s.views.Store(&vs)
		s.refreshViewPlans(&vs)
		obsViewsVer.Set(float64(vs.Version))
		obsViewsCount.Set(float64(len(vs.Views)))
		obsUtility.Set(vs.Utility)
	}
	obs.Info("serve.restore", "window", s.window.Len(), "window_total", s.window.Total(),
		"view_version", viewVersion(s.views.Load()), "model_version", st.ModelVersion, "lsn", st.LSN)
	return nil
}

func viewVersion(vs *ViewSet) int {
	if vs == nil {
		return 0
	}
	return vs.Version
}

// writeSnapshot captures the serving state atomically against concurrent
// mutation+append pairs (durMu) and hands it to the durable store.
func (s *Server) writeSnapshot() error {
	s.durMu.Lock()
	_, sqls := s.window.SnapshotTagged()
	total := s.window.Total()
	vs := s.views.Load()
	m := s.model.Load()
	lsn := s.dur.LastLSN()
	s.durMu.Unlock()

	snap := &durable.Snapshot{LSN: lsn, WindowSQL: sqls, WindowTotal: total}
	if vs != nil {
		raw, err := json.Marshal(vs)
		if err != nil {
			return fmt.Errorf("serve: snapshot view set: %w", err)
		}
		snap.ViewSet = raw
	}
	if m != nil {
		snap.ModelPath = durable.ModelCheckpointName(m.version)
		snap.ModelScale = m.scale
		snap.ModelVersion = m.version
	}
	return s.dur.WriteSnapshot(snap)
}

// maybeSnapshot writes a snapshot when the configured record cadence has
// accumulated since the last one. Failures are logged, not fatal: the
// WAL alone still recovers the state, just with a longer replay.
func (s *Server) maybeSnapshot() {
	if s.dur == nil || !s.dur.ShouldSnapshot() {
		return
	}
	if err := s.writeSnapshot(); err != nil {
		obs.Warn("serve.durable", "event", "snapshot_failed", "err", err)
	}
}
