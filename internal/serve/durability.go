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

// saveCheckpoint persists g's weights to the data directory under name
// with durable.WriteFile: recovery either sees the whole checkpoint or
// none.
func (s *Server) saveCheckpoint(name string, g *generation) error {
	var buf bytes.Buffer
	if err := g.m.Save(&buf); err != nil {
		return err
	}
	ck := checkpointFile{
		FormatVersion: ckptFormatVersion,
		VocabWords:    g.m.Enc.Vocab.Words(),
		Scale:         g.scale,
		Version:       g.version,
		Model:         buf.Bytes(),
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return durable.WriteFile(filepath.Join(s.dur.Dir(), name), data)
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

// persist saves a checkpoint of next's weights when they have none and
// logs next as one WAL record, under the durMu hold that stores next: a
// snapshot sees the record and the state together or neither. A failed
// checkpoint leaves the weights in memory only: serving continues on
// them, but next is not logged, so the WAL's last generation — and the
// snapshot's — stays the last pair of weights and view set that was
// saved whole; next keeps pointing at the previous checkpoint, so the
// next publish retries the save. The failure is loud in the event log.
func (s *Server) persist(next *generation) {
	if next.m != nil && next.ckpt.Version != next.version {
		name := durable.ModelCheckpointName(next.version)
		if err := s.saveCheckpoint(name, next); err != nil {
			obs.Error("serve.durable", "event", "checkpoint_save_failed", "version", next.version, "err", err)
			return
		}
		next.ckpt = durable.ModelRecord{Path: name, Scale: next.scale, Version: next.version}
	}
	rec := durable.GenerationRecord{Model: next.ckpt}
	var err error
	if next.views != nil {
		rec.ViewSet, err = json.Marshal(next.views)
	}
	if err == nil {
		err = s.dur.AppendGeneration(rec)
	}
	if err != nil {
		obs.Error("serve.durable", "event", "generation_record_failed", "model_version", next.version, "err", err)
		return
	}
	s.logged = next
}

// restore rebuilds the serving state a recovered durable.Snapshot describes:
// the rolling window re-parsed from its original SQL (plan parsing is
// deterministic, so the window is byte-identical to the pre-crash one),
// and the generation — its model loaded from the checkpoint, its view
// set — stored as recovered, without logging it again.
func (s *Server) restore(st *durable.Snapshot) error {
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

	g := &generation{}
	viewVersion := 0
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
		g.m, g.scale, g.version = m, scale, st.ModelVersion
		g.est = newCache[estEntry](s.cfg.CacheSize, estCacheMetrics)
		g.ckpt = durable.ModelRecord{Path: st.ModelPath, Scale: scale, Version: st.ModelVersion}
	}
	if len(st.ViewSet) > 0 {
		g.views = new(ViewSet)
		if err := json.Unmarshal(st.ViewSet, g.views); err != nil {
			return fmt.Errorf("serve: restore view set: %w", err)
		}
		viewVersion = g.views.Version
		s.refreshViewPlans(g.views)
	}
	s.gen.Store(g)
	s.logged = g
	setGauges(g)
	obs.Info("serve.restore", "window", s.window.Len(), "window_total", s.window.Total(),
		"view_version", viewVersion, "model_version", g.version, "lsn", st.LSN)
	return nil
}

// writeSnapshot captures the durable state — the window and the last
// generation the WAL holds — atomically against concurrent
// mutation+append pairs (durMu) and hands it to the durable store.
func (s *Server) writeSnapshot() error {
	s.durMu.Lock()
	_, sqls := s.window.SnapshotTagged()
	total := s.window.Total()
	g := s.logged
	lsn := s.dur.LastLSN()
	s.durMu.Unlock()

	snap := &durable.Snapshot{LSN: lsn, WindowSQL: sqls, WindowTotal: total,
		ModelPath: g.ckpt.Path, ModelScale: g.ckpt.Scale, ModelVersion: g.ckpt.Version}
	if g.views != nil {
		raw, err := json.Marshal(g.views)
		if err != nil {
			return fmt.Errorf("serve: snapshot view set: %w", err)
		}
		snap.ViewSet = raw
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
