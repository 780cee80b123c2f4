package resilience

import (
	"errors"
	"math"
	"testing"
)

// FuzzParse ensures arbitrary fault specs never panic the parser: a
// spec either compiles to an injector whose rules address registered
// points with in-range options, or is rejected with a nil injector.
// Every armed point is then fired once per rule (delays stripped) to
// show the injector only returns injected errors or injected panics.
func FuzzParse(f *testing.F) {
	RegisterFaultPoint("core.ring", "parallel.task", "service.cache.write")
	RegisterFaultError("budget", errors.New("budget exhausted"))
	f.Add("core.ring=error:budget;service.cache.write=error,times=1;seed=7")
	f.Add("parallel.task=delay:300ms,times=1")
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec)
		if err != nil {
			if in != nil {
				t.Fatalf("Parse(%q) returned an injector with error %v", spec, err)
			}
			return
		}
		if in == nil {
			return // an empty spec
		}
		var rules []Rule
		for point, states := range in.rules {
			pointMu.RLock()
			known := knownPoints[point]
			pointMu.RUnlock()
			if !known {
				t.Fatalf("Parse(%q) armed unregistered point %q", spec, point)
			}
			for _, st := range states {
				r := st.rule
				if r.After < 0 || r.Times < 0 || math.IsNaN(r.Prob) || r.Prob < 0 || r.Prob > 1 {
					t.Fatalf("Parse(%q) accepted out-of-range options %+v", spec, r)
				}
				r.Delay, r.After, r.Prob = 0, 0, 0
				rules = append(rules, r)
			}
		}
		fast := NewInjector(1, rules...)
		for _, r := range rules {
			func() {
				defer func() {
					if p := recover(); p != nil {
						if _, ok := p.(*InjectedPanic); !ok {
							t.Fatalf("Parse(%q): firing %q panicked with %v", spec, r.Point, p)
						}
					}
				}()
				if err := fast.Fire(r.Point); err != nil && !errors.Is(err, ErrInjected) {
					t.Fatalf("Parse(%q): firing %q returned %v, not an injected error", spec, r.Point, err)
				}
			}()
		}
	})
}
