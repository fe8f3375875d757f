package router

import (
	"reflect"
	"testing"
)

// memEvent records one membership-hook firing.
type memEvent struct {
	ID     string
	InRing bool
}

// TestOnMembershipHook pins every ring transition that must feed the
// scheduling policy: probe mark-down/up, drain, retire, activate — and
// the transitions that must NOT fire (administrative states absorbing
// probe results, standby removal).
func TestOnMembershipHook(t *testing.T) {
	reg, err := NewRegistryWithConfig(RegistryConfig{
		Workers: []WorkerSpec{
			{ID: "w1", URL: "http://w1.invalid"},
			{ID: "w2", URL: "http://w2.invalid"},
		},
		MarkDownAfter: 2,
		MarkUpAfter:   2,
	})
	if err != nil {
		t.Fatalf("NewRegistryWithConfig: %v", err)
	}
	var got []memEvent
	reg.OnMembership(func(id string, inRing bool) {
		got = append(got, memEvent{id, inRing})
	})

	reg.NoteResult("w1", false) // 1 failure: no transition
	reg.NoteResult("w1", false) // 2nd: up -> down
	reg.NoteResult("w1", true)  // 1 success: no transition
	reg.NoteResult("w1", true)  // 2nd: down -> up
	reg.Drain("w1")             // up -> draining: leaves ring
	reg.NoteResult("w1", false) // draining absorbs probe results
	reg.NoteResult("w1", false)
	reg.Retire("w1")   // draining -> standby: already out of the ring
	reg.Activate("w1") // standby -> up
	reg.Retire("w2")   // up -> standby: leaves ring

	want := []memEvent{
		{"w1", false}, // marked down
		{"w1", true},  // marked up
		{"w1", false}, // drained
		{"w1", true},  // activated
		{"w2", false}, // retired while serving
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("membership events:\ngot  %v\nwant %v", got, want)
	}
}
