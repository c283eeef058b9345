package nebula

import (
	"testing"
	"testing/quick"

	"videocloud/internal/virt"
)

const (
	gb = int64(1) << 30
	mb = int64(1) << 20
)

func poolOfHosts(t *testing.T, free ...int64) []*virt.Host {
	t.Helper()
	hosts := make([]*virt.Host, len(free))
	for i, f := range free {
		h := virt.NewHost(string(rune('a'+i)), 32, 1e9, 32*gb, 1000*gb, 0)
		// Consume memory so FreeMemory == f.
		pad := 32*gb - f
		if pad > 0 {
			if _, err := h.CreateVM(virt.VMConfig{
				Name: "pad", VCPUs: 1, MemoryBytes: pad, DiskBytes: 0,
			}); err != nil {
				t.Fatal(err)
			}
		}
		hosts[i] = h
	}
	return hosts
}

func req(mem int64) virt.VMConfig {
	return virt.VMConfig{Name: "r", VCPUs: 1, MemoryBytes: mem, DiskBytes: 1 * gb}
}

func TestPackingPrefersFullestHost(t *testing.T) {
	hosts := poolOfHosts(t, 8*gb, 2*gb, 16*gb)
	got := place(PackingPolicy{}, hosts, req(1*gb), nil)
	if got == nil || got.Name != "b" {
		t.Fatalf("packing chose %v, want b (2GB free)", got)
	}
}

func TestStripingPrefersEmptiestHost(t *testing.T) {
	hosts := poolOfHosts(t, 8*gb, 2*gb, 16*gb)
	got := place(StripingPolicy{}, hosts, req(1*gb), nil)
	if got == nil || got.Name != "c" {
		t.Fatalf("striping chose %v, want c (16GB free)", got)
	}
}

func TestPlacementFiltersInfeasible(t *testing.T) {
	hosts := poolOfHosts(t, 8*gb, 2*gb, 16*gb)
	// 12GB only fits on c even though packing prefers fuller hosts.
	got := place(PackingPolicy{}, hosts, req(12*gb), nil)
	if got == nil || got.Name != "c" {
		t.Fatalf("chose %v, want c", got)
	}
	// Nothing fits 64GB.
	if got := place(PackingPolicy{}, hosts, req(64*gb), nil); got != nil {
		t.Fatalf("placed impossible request on %v", got.Name)
	}
}

func TestPlacementSkipsFailedHosts(t *testing.T) {
	hosts := poolOfHosts(t, 8*gb, 16*gb)
	hosts[1].Fail()
	got := place(StripingPolicy{}, hosts, req(1*gb), nil)
	if got == nil || got.Name != "a" {
		t.Fatalf("chose %v, want a (b failed)", got)
	}
}

func TestLoadAwareUsesCPUDemand(t *testing.T) {
	hosts := poolOfHosts(t, 16*gb, 16*gb)
	// Host a gets a hot VM: 16 busy vcpus.
	vm, err := hosts[0].CreateVM(virt.VMConfig{Name: "hot", VCPUs: 16, MemoryBytes: 1 * gb})
	if err != nil {
		t.Fatal(err)
	}
	vm.Workload = virt.UniformWriter{Rate: mb, Util: 1.0}
	vm.Start()
	got := place(LoadAwarePolicy{}, hosts, req(1*gb), nil)
	if got == nil || got.Name != "b" {
		t.Fatalf("load-aware chose %v, want idle host b", got)
	}
}

func TestFixedPolicyPins(t *testing.T) {
	hosts := poolOfHosts(t, 8*gb, 16*gb)
	got := place(FixedPolicy{Host: "a"}, hosts, req(1*gb), nil)
	if got == nil || got.Name != "a" {
		t.Fatalf("fixed chose %v", got)
	}
	if got := place(FixedPolicy{Host: "zz"}, hosts, req(1*gb), nil); got != nil {
		t.Fatalf("fixed to absent host placed on %v", got.Name)
	}
	// Pinned host too small -> no placement even though others fit.
	if got := place(FixedPolicy{Host: "a"}, hosts, req(12*gb), nil); got != nil {
		t.Fatalf("fixed overrode capacity: %v", got.Name)
	}
}

func TestPoliciesDoNotMutateInput(t *testing.T) {
	hosts := poolOfHosts(t, 8*gb, 2*gb, 16*gb)
	orig := append([]*virt.Host(nil), hosts...)
	for _, p := range []Policy{PackingPolicy{}, StripingPolicy{}, LoadAwarePolicy{}} {
		p.Rank(hosts, req(1*gb))
		for i := range hosts {
			if hosts[i] != orig[i] {
				t.Fatalf("%s mutated candidate slice", p.Name())
			}
		}
	}
}

// Property: packing and striping return exact reverses of each other when
// all free-memory values are distinct, and both are permutations of the
// candidates.
func TestPropertyPackingStripingDual(t *testing.T) {
	f := func(frees []uint8) bool {
		if len(frees) == 0 || len(frees) > 10 {
			return true
		}
		seen := map[int64]bool{}
		hosts := make([]*virt.Host, 0, len(frees))
		for i, fr := range frees {
			free := int64(fr%30+1) * gb
			if seen[free] {
				continue // need distinct values for strict reversal
			}
			seen[free] = true
			h := virt.NewHost(string(rune('a'+i)), 32, 1e9, 32*gb, 100*gb, 0)
			h.CreateVM(virt.VMConfig{Name: "pad", VCPUs: 1, MemoryBytes: 32*gb - free})
			hosts = append(hosts, h)
		}
		if len(hosts) < 2 {
			return true
		}
		r := req(1)
		pack := PackingPolicy{}.Rank(hosts, r)
		strip := StripingPolicy{}.Rank(hosts, r)
		if len(pack) != len(hosts) || len(strip) != len(hosts) {
			return false
		}
		for i := range pack {
			if pack[i] != strip[len(strip)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
