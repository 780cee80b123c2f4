package obs_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"xring/internal/obs"
)

func init() {
	// Synthetic stages used by these tests; SetLogSpec rejects names it
	// has never seen.
	for _, s := range []string{"logtest", "logother", "lglate", "lgsilent"} {
		obs.RegisterLogStage(s)
	}
}

func TestLogSpecStageLevels(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.SetLogSpec(&buf, "warn,logtest=debug"); err != nil {
		t.Fatal(err)
	}
	// logother gets no override here: it must keep following the
	// default level when the test runs again in the same process.
	t.Cleanup(func() {
		_ = obs.SetLogSpec(io.Discard, "off,logtest=off")
	})

	obs.Logger("logtest").Debug("chatty stage", "k", 1)
	obs.Logger("logother").Info("suppressed below warn")
	obs.Logger("logother").Error("loud failure")

	out := buf.String()
	if !strings.Contains(out, "chatty stage") || !strings.Contains(out, "stage=logtest") {
		t.Fatalf("per-stage debug override missing from output:\n%s", out)
	}
	if strings.Contains(out, "suppressed below warn") {
		t.Fatalf("info record leaked through warn default:\n%s", out)
	}
	if !strings.Contains(out, "loud failure") {
		t.Fatalf("error record missing from output:\n%s", out)
	}
}

func TestLogSpecLateLevelChange(t *testing.T) {
	var buf bytes.Buffer
	if err := obs.SetLogSpec(&buf, "lglate=off"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = obs.SetLogSpec(io.Discard, "off,lglate=off") })

	log := obs.Logger("lglate") // cached before the level flips
	log.Info("before")
	if err := obs.SetLogSpec(nil, "lglate=info"); err != nil {
		t.Fatal(err)
	}
	log.Info("after")

	out := buf.String()
	if strings.Contains(out, "before") {
		t.Fatalf("record emitted while the stage was off:\n%s", out)
	}
	if !strings.Contains(out, "after") {
		t.Fatalf("level change did not reach the cached logger:\n%s", out)
	}
}

func TestLogSpecDefaultSilent(t *testing.T) {
	// Without any spec (and after resetting to off), loggers must drop
	// everything.
	var buf bytes.Buffer
	if err := obs.SetLogSpec(&buf, "off"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = obs.SetLogSpec(io.Discard, "off") })
	obs.Logger("lgsilent").Error("should vanish")
	if buf.Len() != 0 {
		t.Fatalf("default-silent logger wrote %q", buf.String())
	}
}

func TestLogSpecErrors(t *testing.T) {
	if err := obs.SetLogSpec(nil, "nope"); err == nil {
		t.Fatal("bad level accepted")
	}
	if err := obs.SetLogSpec(nil, "core=nope"); err == nil {
		t.Fatal("bad per-stage level accepted")
	}
}

// TestLogSpecUnknownStage: a misspelled stage name fails with a typed
// error that lists the valid stages.
func TestLogSpecUnknownStage(t *testing.T) {
	err := obs.SetLogSpec(nil, "mappign=debug")
	if err == nil {
		t.Fatal("unknown stage accepted")
	}
	var use *obs.UnknownStageError
	if !errors.As(err, &use) {
		t.Fatalf("error is %T, want *obs.UnknownStageError", err)
	}
	if use.Stage != "mappign" {
		t.Errorf("Stage = %q, want mappign", use.Stage)
	}
	if len(use.Valid) == 0 {
		t.Fatal("Valid stage list is empty")
	}
	msg := err.Error()
	for _, want := range []string{"mapping", "core", "service"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not list valid stage %q", msg, want)
		}
	}
	// The known-stage path still works, including mixed specs.
	if err := obs.SetLogSpec(nil, "off,mapping=off"); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}
