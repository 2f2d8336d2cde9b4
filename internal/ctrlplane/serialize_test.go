package ctrlplane

import (
	"sync"
	"testing"

	"repro/internal/alu"
	"repro/internal/core"
	"repro/internal/tables"
)

// rule returns a distinct exact-match rule for module stage 1.
func rule(i int) core.Rule {
	var k tables.Key
	k[20], k[21] = 0x80|byte(i>>8), byte(i)
	var a alu.Action
	a[1] = alu.Instr{Op: alu.OpSet, A: alu.NoOperand, Imm: uint16(i)}
	return core.Rule{Key: k, Mask: tables.FullMask(), Action: a}
}

// TestClientSerializesRuleWritesBesideLoad: a load checks the one
// daisy-chain counter across its whole stream, so rule writes of
// another module that run beside it must not land inside that window.
// Module 2 is unloaded and reloaded while module 1's rule is deleted
// and re-inserted in a second goroutine; every load must verify.
func TestClientSerializesRuleWritesBesideLoad(t *testing.T) {
	c := New(core.NewDefault())
	if _, err := load(c, testModule(1, 1), placement()); err != nil {
		t.Fatal(err)
	}
	m2, pl2 := testModule(2, 8), placement()
	pl2.CAMBase[1] = 1
	if _, err := load(c, m2, pl2); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := c.DeleteRule(1, 1, 0); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := c.InsertRule(1, 1, rule(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 300; i++ {
		if err := c.UnloadModule(2); err != nil {
			t.Fatal(err)
		}
		if _, err := load(c, m2, pl2); err != nil {
			close(done)
			wg.Wait()
			t.Fatalf("reload %d beside rule writes: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
}

// TestClientSerializesConcurrentInserts: two InsertRule calls that run
// together must take different CAM addresses; neither may overwrite the
// other's rule. Each round frees a module's whole partition and fills
// it again from two goroutines.
func TestClientSerializesConcurrentInserts(t *testing.T) {
	const depth, rounds = 8, 200
	c := New(core.NewDefault())
	if _, err := load(c, testModule(1, depth), placement()); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		for addr := 0; addr < depth; addr++ {
			if err := c.DeleteRule(1, 1, addr); err != nil {
				t.Fatal(err)
			}
		}
		var addrs [2][depth / 2]int
		var wg sync.WaitGroup
		for g := range addrs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range addrs[g] {
					addr, _, err := c.InsertRule(1, 1, rule(g*depth+i))
					if err != nil {
						t.Error(err)
						return
					}
					addrs[g][i] = addr
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		seen := make(map[int]bool, depth)
		for _, as := range addrs {
			for _, a := range as {
				if seen[a] {
					t.Fatalf("round %d: two inserts took CAM address %d: %v", r, a, addrs)
				}
				seen[a] = true
			}
		}
	}
}

// TestClientSerializesIntoOneFrame: every write encodes into the
// client's one payload buffer and one frame, which the next write
// overwrites, so nothing the daisy chain applied may still point into
// them. After each of InsertFlow, InsertRule and DeleteRule both
// buffers are overwritten; the flow, the rule and ModuleChecksum must
// not move.
func TestClientSerializesIntoOneFrame(t *testing.T) {
	p := core.NewDefault()
	c := New(p)
	if _, err := load(c, testModule(1, 4), placement()); err != nil {
		t.Fatal(err)
	}
	const stg = 1
	key, err := c.FlowKeyForFrame(1, stg, frame(1, 300))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		fn   func() error
	}{
		{"InsertFlow", func() error { return c.InsertFlow(1, stg, key, 2) }},
		{"DeleteRule", func() error { return c.DeleteRule(1, stg, 3) }},
		{"InsertRule", func() error { _, _, err := c.InsertRule(1, stg, rule(9)); return err }},
	} {
		if err := op.fn(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		sum := p.ModuleChecksum(1)
		cam, err := p.Stages[stg].Match.Entry(3)
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		for _, b := range [][]byte{c.frame[:cap(c.frame)], c.payload[:cap(c.payload)]} {
			for i := range b {
				b[i] = 0xa5
			}
		}
		c.mu.Unlock()
		if got := p.ModuleChecksum(1); got != sum {
			t.Fatalf("%s: overwriting the client's buffers moved ModuleChecksum %#x -> %#x", op.name, sum, got)
		}
		if got, _ := p.Stages[stg].Match.Entry(3); got != cam {
			t.Fatalf("%s: overwriting the client's buffers changed CAM entry 3 to %+v", op.name, got)
		}
		kw := key.Words()
		if addr, ok := p.Stages[stg].Hash.LookupWords(&kw, 1); !ok || addr != 2 {
			t.Fatalf("%s: the flow resolves to %d,%v after the overwrite, want 2", op.name, addr, ok)
		}
	}
}

// TestClientSerializesFlowAndRuleInserts: flow installs and rule
// rewrites from two goroutines share the client's buffers and its one
// daisy chain; under -race any write outside mu shows, and every flow
// and the last rule must land intact.
func TestClientSerializesFlowAndRuleInserts(t *testing.T) {
	const stg, flows, rules = 1, 300, 300
	p := core.NewDefault()
	c := New(p)
	if _, err := load(c, testModule(1, 4), placement()); err != nil {
		t.Fatal(err)
	}
	keys := make([]tables.Key, flows)
	for i := range keys {
		var err error
		if keys[i], err = c.FlowKeyForFrame(1, stg, frame(1, uint16(1000+i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, k := range keys {
			if err := c.InsertFlow(1, stg, k, 1+i%3); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rules; i++ {
			if err := c.DeleteRule(1, stg, 0); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := c.InsertRule(1, stg, rule(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := p.Stages[stg].Hash.ModuleEntries(1); n != flows {
		t.Fatalf("module 1 holds %d flows, want %d", n, flows)
	}
	for i, k := range keys {
		kw := k.Words()
		if addr, ok := p.Stages[stg].Hash.LookupWords(&kw, 1); !ok || addr != 1+i%3 {
			t.Fatalf("flow %d resolves to %d,%v, want %d", i, addr, ok, 1+i%3)
		}
	}
	want := rule(rules - 1)
	if e, err := p.Stages[stg].Match.Entry(0); err != nil || !e.Valid || e.Key != want.Key {
		t.Fatalf("CAM entry 0 = %+v, %v; want the last rule's key %x", e, err, want.Key)
	}
}
