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
