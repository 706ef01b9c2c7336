package trace

import (
	"reflect"
	"testing"
)

// TestNilTraceIsNoOp checks the nil-trace contract at run time: every
// exported method of a nil *Trace, called with zero-valued arguments,
// returns without panicking, and so does the closer StartPhase returns.
// The tracenil analyzer only checks that each method opens with a nil
// guard; this test checks that the guard holds.
func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	v := reflect.ValueOf(tr)
	for i := 0; i < v.NumMethod(); i++ {
		name := v.Type().Method(i).Name
		m := v.Method(i)
		args := make([]reflect.Value, m.Type().NumIn())
		for j := range args {
			args[j] = reflect.Zero(m.Type().In(j))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(*Trace)(nil).%s panicked: %v", name, r)
				}
			}()
			out := m.Call(args)
			if name == "StartPhase" {
				out[0].Interface().(func())()
			}
		}()
	}
	if tr.Enabled() {
		t.Error("(*Trace)(nil).Enabled() = true, want false")
	}
	if s := tr.PhaseSeconds("core-decomposition"); s != 0 {
		t.Errorf("(*Trace)(nil).PhaseSeconds = %v, want 0", s)
	}
}
