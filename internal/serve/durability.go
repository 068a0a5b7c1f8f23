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
// restore needs to reproduce the model bit-exactly). The cost scale
// and the version are the generation record's: every publish of new
// weights saves them under a new version, named in the file name.
const ckptFormatVersion = 2

type checkpointFile struct {
	FormatVersion int             `json:"format_version"`
	VocabWords    []string        `json:"vocab_words"`
	Model         json.RawMessage `json:"model"`
}

// saveCheckpoint persists m's weights to the data directory under name
// with durable.WriteFile: recovery either sees the whole checkpoint or
// none.
func (s *Server) saveCheckpoint(name string, m *widedeep.Model) error {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return err
	}
	data, err := json.Marshal(checkpointFile{FormatVersion: ckptFormatVersion, VocabWords: m.Enc.Vocab.Words(), Model: buf.Bytes()})
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
func (s *Server) loadCheckpoint(path string) (*widedeep.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", filepath.Base(path), err)
	}
	if ck.FormatVersion != ckptFormatVersion {
		return nil, fmt.Errorf("checkpoint %s: format version %d (this build reads %d)",
			filepath.Base(path), ck.FormatVersion, ckptFormatVersion)
	}
	vocab := featenc.NewVocabFromWords(ck.VocabWords)
	m := widedeep.New(vocab, s.adv.Cfg.WDModel, rand.New(rand.NewSource(s.adv.Cfg.Seed)))
	if err := m.Load(bytes.NewReader(ck.Model)); err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", filepath.Base(path), err)
	}
	return m, nil
}

// persist saves a checkpoint of next's weights unless the last logged
// record already names their version, and logs next as one WAL record,
// under the durMu hold that stores next: a snapshot sees the record and
// the state together or neither. A failed checkpoint leaves the weights
// in memory only: serving continues on them, but next is not logged, so
// the WAL's last generation — and the snapshot's — stays the last pair
// of weights and view set that was saved whole, and the next publish
// retries the save. The failure is loud in the event log.
func (s *Server) persist(next *generation) {
	var rec durable.GenerationRecord
	if next.m != nil {
		rec.Model = durable.ModelRecord{Path: durable.ModelCheckpointName(next.version), Scale: next.scale, Version: next.version}
		if s.logged.Model != rec.Model {
			if err := s.saveCheckpoint(rec.Model.Path, next.m); err != nil {
				obs.Error("serve.durable", "event", "checkpoint_save_failed", "version", next.version, "err", err)
				return
			}
		}
	}
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
	s.logged = rec
}

// restore rebuilds the serving state a recovered durable.Snapshot describes:
// the rolling window re-parsed from its original SQL (plan parsing is
// deterministic, so the window is byte-identical to the pre-crash one),
// and the generation record — its model loaded from the checkpoint, its
// view set — stored as recovered, without logging it again.
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

	rec := st.Generation
	g := &generation{}
	viewVersion := 0
	if rec.Model.Path != "" {
		m, err := s.loadCheckpoint(filepath.Join(s.dur.Dir(), rec.Model.Path))
		if err != nil {
			return fmt.Errorf("serve: restore model: %w", err)
		}
		g.m, g.scale, g.version = m, rec.Model.Scale, rec.Model.Version
		g.est = newCache[estEntry](s.cfg.CacheSize, estCacheMetrics)
	}
	if len(rec.ViewSet) > 0 {
		g.views = new(ViewSet)
		if err := json.Unmarshal(rec.ViewSet, g.views); err != nil {
			return fmt.Errorf("serve: restore view set: %w", err)
		}
		viewVersion = g.views.Version
		s.refreshViewPlans(g.views)
	}
	s.gen.Store(g)
	s.logged = rec
	setGauges(g)
	obs.Info("serve.restore", "window", s.window.Len(), "window_total", s.window.Total(),
		"view_version", viewVersion, "model_version", g.version, "lsn", st.LSN)
	return nil
}

// writeSnapshot captures the durable state — the window and the last
// generation record the WAL holds — atomically against concurrent
// mutation+append pairs (durMu) and hands it to the durable store. The
// record's view-set bytes are shared, not re-marshalled: a published
// view set never changes, so neither do the bytes logged for it.
func (s *Server) writeSnapshot() error {
	s.durMu.Lock()
	_, sqls := s.window.SnapshotTagged()
	snap := &durable.Snapshot{LSN: s.dur.LastLSN(), WindowSQL: sqls, WindowTotal: s.window.Total(), Generation: s.logged}
	s.durMu.Unlock()
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
