package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"sync/atomic"
)

// levelOff sits above every severity: a logger at this level is silent.
const levelOff = slog.LevelError + 4

// ParseLevel maps a -log-level flag value to a slog.Level; "off" (and
// the empty string) is a level above error.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	case "off", "":
		return levelOff, nil
	default:
		return levelOff, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
	}
}

// logger backs the package-level event helpers: silent until LogTo.
// The level gate is one atomic load plus slog's Enabled check, and
// allocates nothing, so a gated call is cheap on hot paths.
var logger atomic.Pointer[slog.Logger]

func init() { LogTo(io.Discard, levelOff) }

// LogTo points the event helpers at w with the given minimum level —
// the one call a binary needs to surface pipeline events. Each event is
// a single key=value line:
//
//	ts=2026-08-05T10:31:02.123Z level=info event=advisor.select selector=RLView views=3
//
// kv is alternating key, value pairs; floats print with six significant
// digits, and values are quoted only when empty or containing spaces,
// '=' or '"'.
func LogTo(w io.Writer, level slog.Level) { logger.Store(slog.New(newHandler(w, level))) }

func newHandler(w io.Writer, level slog.Level) slog.Handler {
	return slog.NewTextHandler(w, &slog.HandlerOptions{Level: level, ReplaceAttr: replaceAttr})
}

// replaceAttr turns slog's text line into the documented one: the
// built-in time, level and msg attributes become ts= (UTC, millisecond),
// a lowercase level= and event=, and floats are cut to six digits.
// slog hands built-in and caller attributes to this function alike, so
// a caller's own "msg" key would come out as event= too: no event uses
// "time", "level" or "msg" as a key.
func replaceAttr(_ []string, a slog.Attr) slog.Attr {
	switch {
	case a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime:
		return slog.String("ts", a.Value.Time().UTC().Format("2006-01-02T15:04:05.000Z"))
	case a.Key == slog.LevelKey:
		if lv, ok := a.Value.Any().(slog.Level); ok {
			a.Value = slog.StringValue(strings.ToLower(lv.String()))
		}
	case a.Key == slog.MessageKey:
		a.Key = "event"
	case a.Value.Kind() == slog.KindFloat64:
		a.Value = slog.StringValue(strconv.FormatFloat(a.Value.Float64(), 'g', 6, 64))
	}
	return a
}

// Debug emits a debug event.
func Debug(event string, kv ...any) {
	logger.Load().Log(context.Background(), slog.LevelDebug, event, kv...)
}

// Info emits an info event.
func Info(event string, kv ...any) {
	logger.Load().Log(context.Background(), slog.LevelInfo, event, kv...)
}

// Warn emits a warning event.
func Warn(event string, kv ...any) {
	logger.Load().Log(context.Background(), slog.LevelWarn, event, kv...)
}

// Error emits an error event.
func Error(event string, kv ...any) {
	logger.Load().Log(context.Background(), slog.LevelError, event, kv...)
}
