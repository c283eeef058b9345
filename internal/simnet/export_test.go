package simnet

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"fmt"
	"sort"
	"time"

	"videocloud/internal/metrics"
)

// MB is a mebibyte, the size unit the tests use.
const MB = 1 << 20

// Metrics exposes the network's registry (flow counts, bytes, durations).
func (n *Network) Metrics() *metrics.Registry { return n.reg }

// AddUniformHosts registers count hosts named prefix0..prefixN-1 with
// identical NICs, the common testbed shape in the paper's cluster.
func (n *Network) AddUniformHosts(prefix string, count int, bandwidth float64, latency time.Duration) []*Host {
	hosts := make([]*Host, count)
	for i := range hosts {
		hosts[i] = n.AddHost(fmt.Sprintf("%s%d", prefix, i), bandwidth, bandwidth, latency)
	}
	return hosts
}

// Hosts returns all hosts sorted by name.
func (n *Network) Hosts() []*Host {
	out := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ActiveFlows returns the number of flows currently moving bytes.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// SetLatency changes a host's one-way propagation delay for transfers issued
// after the call — the chaos injector's "delay a link" fault.
func (n *Network) SetLatency(name string, latency time.Duration) error {
	h, ok := n.hosts[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	if latency < 0 {
		return fmt.Errorf("simnet: host %q negative latency", name)
	}
	h.Latency = latency
	return nil
}
