package pulopt

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"xivm/internal/core"
)

// partialBackend lands only the first unit of every translated batch and
// then reports a failure, as a journal or engine fault mid-batch would.
type partialBackend struct{ EngineBackend }

func (b partialBackend) ApplyBatchCtx(ctx context.Context, plan *BatchPlan) (*core.Report, int, error) {
	rep, applied, err := b.Eng.ApplyBatchCtx(ctx, plan.Units[:1])
	if err != nil {
		return rep, applied, err
	}
	return rep, applied, errors.New("unit 2 failed")
}

func describeStep(st Step) string {
	s := fmt.Sprintf("single[%d]", st.First)
	if st.Batched {
		s = fmt.Sprintf("batch[%d:%d]", st.First, st.First+st.Count)
	}
	if st.Rejected != "" {
		s += " rejected=" + st.Rejected
	}
	if st.Abandoned {
		return s + " abandoned"
	}
	s += fmt.Sprintf(" applied=%d", st.Applied)
	if st.Err != nil {
		s += " err"
	}
	return s
}

// TestApplyRun pins the run applier's policy: chunks of at most the cap, a
// lone statement applied without planning, an accepted chunk applied as one
// batch, a rejected chunk applied statement by statement with the reason
// reported, and a part-applied batch surfaced to the step callback, whose
// error stops the run. Every run that completes must land on the state and
// version of its live statements applied one at a time.
func TestApplyRun(t *testing.T) {
	const doc = `<r><a/><b/><c><d/></c></r>`
	errStop := errors.New("stop")
	for _, tc := range []struct {
		name      string
		srcs      []string
		maxBatch  int
		cancelled int // index of a statement whose context is done, or -1
		partial   bool
		want      []string
	}{
		{
			name:      "one statement",
			srcs:      []string{`insert <x/> into /r/a`},
			cancelled: -1,
			want:      []string{"single[0] applied=1"},
		},
		{
			name:      "batchable chunk",
			srcs:      []string{`insert <x/> into /r/a`, `insert <y/> into /r/b`, `delete /r/c/d`},
			cancelled: -1,
			want:      []string{"batch[0:3] applied=3"},
		},
		{
			name:      "rejected chunk",
			srcs:      []string{`insert <x/> into /r/a`, `replace /r/b with <b2/>`, `insert <y/> into /r/c`},
			cancelled: -1,
			want: []string{
				"single[0] rejected=replace applied=1",
				"single[1] rejected=replace applied=1",
				"single[2] rejected=replace applied=1",
			},
		},
		{
			name: "longer than the cap",
			srcs: []string{
				`insert <x1/> into /r/a`, `insert <x2/> into /r/b`,
				`insert <x3/> into /r/a`, `insert <x4/> into /r/b`,
				`insert <x5/> into /r/c`,
			},
			maxBatch:  2,
			cancelled: -1,
			want:      []string{"batch[0:2] applied=2", "batch[2:4] applied=2", "single[4] applied=1"},
		},
		{
			name:      "cancelled statement",
			srcs:      []string{`insert <x/> into /r/a`, `insert <y/> into /r/b`, `insert <z/> into /r/c`},
			cancelled: 1,
			want: []string{
				"single[0] rejected=cancelled applied=1",
				"single[1] rejected=cancelled abandoned",
				"single[2] rejected=cancelled applied=1",
			},
		},
		{
			name: "batch part-applies",
			srcs: []string{
				`insert <x/> into /r/a`, `delete /r/c/d`, `insert <y/> into /r/b`,
				`insert <z/> into /r/c`,
			},
			maxBatch:  3,
			cancelled: -1,
			partial:   true,
			want:      []string{"batch[0:3] applied=1 err"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := planEngine(t, doc)
			var b Backend = EngineBackend{Eng: e}
			if tc.partial {
				b = partialBackend{EngineBackend{Eng: e}}
			}
			done, cancel := context.WithCancel(context.Background())
			cancel()
			sts := stmts(t, tc.srcs...)
			run := make([]Stmt, len(sts))
			for i, st := range sts {
				run[i] = Stmt{Ctx: context.Background(), St: st}
				if i == tc.cancelled {
					run[i].Ctx = done
				}
			}

			var got []string
			err := ApplyRun(b, run, tc.maxBatch, func(st Step) error {
				got = append(got, describeStep(st))
				if st.Batched && st.Err != nil {
					return errStop
				}
				return nil
			})
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("steps = %q, want %q", got, tc.want)
			}
			if tc.partial {
				if !errors.Is(err, errStop) {
					t.Fatalf("ApplyRun = %v, want the step callback's error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}

			ref := planEngine(t, doc)
			for i, st := range sts {
				if i == tc.cancelled {
					continue
				}
				if _, err := ref.ApplyStatement(st); err != nil {
					t.Fatal(err)
				}
			}
			if e.Doc.String() != ref.Doc.String() {
				t.Fatalf("document %s, want %s", e.Doc.String(), ref.Doc.String())
			}
			if e.Version() != ref.Version() {
				t.Fatalf("version %d, want %d", e.Version(), ref.Version())
			}
		})
	}
}
