package menshen_test

// Testable examples for the public API; these run under go test and
// render on the package documentation page.

import (
	"fmt"

	menshen "repro"
	"repro/internal/trafficgen"
)

const exampleCalc = `
module calc;
header calc_h { op : 16; opa : 32; opb : 32; result : 32; }
parser { extract calc_h at 46; }
action do_add() { calc_h.result = calc_h.opa + calc_h.opb; }
table ops {
    key = { calc_h.op; }
    actions = { do_add; }
    size = 2;
    entries { (1) -> do_add; }
}
control { apply(ops); }
`

// ExampleDevice_LoadModule loads one module and processes a packet.
func ExampleDevice_LoadModule() {
	dev := menshen.NewDevice()
	if _, err := dev.LoadModule(exampleCalc, 1); err != nil {
		fmt.Println("load:", err)
		return
	}
	frame := trafficgen.CalcPacket(1, trafficgen.CalcAdd, 40, 2, 0)
	res, err := dev.Send(frame)
	if err != nil {
		fmt.Println("send:", err)
		return
	}
	v, _ := trafficgen.CalcResult(res.Output)
	fmt.Println(v)
	// Output: 42
}

// ExampleDevice_UpdateModule shows a live update leaving another tenant
// untouched.
func ExampleDevice_UpdateModule() {
	dev := menshen.NewDevice()
	dev.LoadModule(exampleCalc, 1)

	other := `
module seq;
header s_h { op : 16; n : 48; }
register ctr[1];
parser { extract s_h at 46; }
action next() { s_h.n = ctr[0]++; }
table t { key = { s_h.op; } actions = { next; } size = 1; entries { (1) -> next; } }
control { apply(t); }
`
	dev.LoadModule(other, 2)

	// Update module 1; module 2 keeps its state and keeps forwarding.
	if _, err := dev.UpdateModule(exampleCalc, 1); err != nil {
		fmt.Println("update:", err)
		return
	}
	res, _ := dev.Send(trafficgen.ChainPacket(2, 1, 0))
	seq, _ := trafficgen.ChainSeq(res.Output)
	fmt.Println("module 2 alive:", !res.Dropped, "seq:", seq)
	// Output: module 2 alive: true seq: 1
}
