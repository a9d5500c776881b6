package store

import (
	"flag"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/faultfs"
)

var (
	journalSeed = flag.Int64("journal-seed", 0, "run TestJournalModel at this one seed only (replays a failure)")
	journalFor  = flag.Duration("journal-for", 0, "TestJournalModel: after the fixed seeds, run fresh seeds for this long")
)

// journalModelIDs are the jobs a TestJournalModel sequence touches.
var journalModelIDs = []string{"a", "b", "c"}

// journalOp is one step of a TestJournalModel sequence: kind is
// "submit", "state" (AppendState), "nowait" (AppendStateNoWait) or
// "remove".
type journalOp struct{ kind, id string }

// journalFold is the index's fold on one id's state tag ("" = absent):
// a submit defines the job, a state record replaces the tag of a job
// the index holds, a remove deletes it.
func journalFold(cur string, op journalOp, tag string) string {
	switch {
	case op.kind == "submit":
		return tag
	case op.kind == "remove":
		return ""
	case cur != "":
		return tag
	}
	return cur
}

// journalModelPlay opens a store on m, schedules kind at the faultAt'th
// op after the open (0 = no fault), plays ops through it, reboots, and
// checks the store against the model after every op and after the
// reboot. The live index must hold exactly the fold of the appends
// that returned nil; an append that errored may or may not have
// changed it. After the reboot each id must read as its last
// acknowledged waited record, or as a later record that errored or did
// not wait. It returns the ops the sequence cost before the reboot.
func journalModelPlay(m *faultfs.Mem, ops []journalOp, faultAt int64, kind faultfs.FaultKind) (int64, error) {
	s, err := OpenFS(m, "data")
	if err != nil {
		return 0, fmt.Errorf("open: %w", err)
	}
	opened := m.Ops()
	if faultAt > 0 {
		m.Inject(faultfs.Fault{Op: opened + faultAt, Kind: kind})
	}
	live := map[string]string{}
	may := map[string]map[string]bool{}
	for _, id := range journalModelIDs {
		may[id] = map[string]bool{"": true}
	}
	for i, op := range ops {
		tag := fmt.Sprintf("op%d", i)
		rec := JobRecord{ID: op.id, State: tag}
		var err error
		switch op.kind {
		case "submit":
			err = s.AppendSubmit(op.id, map[string]any{"op": i}, rec)
		case "state":
			err = s.AppendState(op.id, rec)
		case "nowait":
			err = s.AppendStateNoWait(op.id, rec)
		case "remove":
			err = s.Remove(op.id)
		}
		want := journalFold(live[op.id], op, tag)
		got := ""
		if r, serr := s.State(op.id); serr == nil {
			got = r.State
		}
		if got != want && (err == nil || got != live[op.id]) {
			return 0, fmt.Errorf("op %d %s(%s) returned %v; index holds %q, want %q", i, op.kind, op.id, err, got, want)
		}
		if err == nil && op.kind != "nowait" {
			may[op.id] = map[string]bool{}
		}
		may[op.id][want] = true
		live[op.id] = got
	}
	used := m.Ops() - opened
	if !m.Crashed() {
		s.CloseJournal()
	}
	m.SetFull(false)
	m.PowerCycle()
	s2, err := OpenFS(m, "data")
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	defer s2.CloseJournal()
	for _, id := range journalModelIDs {
		got := ""
		if r, err := s2.State(id); err == nil {
			got = r.State
		}
		if !may[id][got] {
			allowed := make([]string, 0, len(may[id]))
			for tag := range may[id] {
				allowed = append(allowed, fmt.Sprintf("%q", tag))
			}
			slices.Sort(allowed)
			return 0, fmt.Errorf("%s recovered as %q; the acknowledged history allows %v", id, got, allowed)
		}
	}
	return used, nil
}

// journalModelRun builds one seeded sequence, plays it fault-free to
// count its ops, then plays it again with one fault of a seeded kind at
// a seeded op inside that count.
func journalModelRun(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]journalOp, 8+rng.Intn(32))
	for i := range ops {
		kind := "remove"
		switch r := rng.Intn(20); {
		case r < 5:
			kind = "submit"
		case r < 11:
			kind = "state"
		case r < 17:
			kind = "nowait"
		}
		ops[i] = journalOp{kind: kind, id: journalModelIDs[rng.Intn(len(journalModelIDs))]}
	}
	kinds := []faultfs.FaultKind{faultfs.FaultErr, faultfs.FaultShortWrite, faultfs.FaultENOSPC, faultfs.FaultCrash}
	kind := kinds[rng.Intn(len(kinds))]
	used, err := journalModelPlay(faultfs.NewMem(seed), ops, 0, kind)
	if err != nil {
		return fmt.Errorf("fault-free run: %w", err)
	}
	at := 1 + rng.Int63n(used)
	if _, err := journalModelPlay(faultfs.NewMem(seed), ops, at, kind); err != nil {
		return fmt.Errorf("%s at op %d of %d, ops %v: %w", kind, at, used, ops, err)
	}
	return nil
}

// TestJournalModel checks the journal against journalModelPlay's model
// over 300 seeded random sequences of submits, waited and no-wait state
// records and removes, each with one fault (error, short write, disk
// full or power cut) and a reboot; -journal-for adds fresh seeds.
func TestJournalModel(t *testing.T) {
	first, last := int64(1), int64(300)
	if *journalSeed != 0 {
		first, last = *journalSeed, *journalSeed
	}
	run := func(seed int64) {
		if err := journalModelRun(seed); err != nil {
			t.Fatalf("seed %d: %v\nreplay: go test ./internal/service/store -run TestJournalModel -journal-seed %d", seed, err, seed)
		}
	}
	for seed := first; seed <= last; seed++ {
		run(seed)
	}
	if *journalFor <= 0 || *journalSeed != 0 {
		return
	}
	start := time.Now()
	seed := start.UnixNano()
	for ; time.Since(start) < *journalFor; seed++ {
		run(seed)
	}
	t.Logf("%d fresh seeds from %d passed", seed-start.UnixNano(), start.UnixNano())
}
