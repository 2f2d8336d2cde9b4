// The directed port graph EngineFabric forwards over and collects
// §3.4 route graphs from.
package fabric

// endpoint is the far side of a directed link.
type endpoint struct {
	device  string
	ingress uint8
}

// topology is the fabric's directed port graph: (device, egress port)
// either ends at a host (no entry) or enters another device at some
// ingress port.
type topology struct {
	// links maps (device, egress port) -> next hop.
	links map[string]map[uint8]endpoint
}

func newTopology() topology {
	return topology{links: make(map[string]map[uint8]endpoint)}
}

// addLink records the directed edge (from, egress) -> (to, ingress).
func (t *topology) addLink(from string, egress uint8, to string, ingress uint8) {
	if t.links[from] == nil {
		t.links[from] = make(map[uint8]endpoint)
	}
	t.links[from][egress] = endpoint{device: to, ingress: ingress}
}

// next resolves one hop; ok=false means (dev, egress) is host-terminal.
func (t *topology) next(dev string, egress uint8) (endpoint, bool) {
	ep, ok := t.links[dev][egress]
	return ep, ok
}
