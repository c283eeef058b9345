package nebula

import (
	"fmt"

	"videocloud/internal/virt"
)

// Template is a VM definition submitted to the cloud, the equivalent of an
// OpenNebula VM template file: capacity, image, virtualization mode, and
// optional contextualization and service-group membership.
type Template struct {
	// Name is the base VM name; instances get "-<id>" appended.
	Name string
	// VCPUs, MemoryBytes, DiskBytes are the requested capacity.
	VCPUs       int
	MemoryBytes int64
	DiskBytes   int64
	// Mode selects the virtualization strategy (default: the driver's).
	Mode virt.VirtMode
	// Image names the catalog base image to clone for the VM's disk.
	Image string
	// FullClone materialises an independent copy instead of a COW clone;
	// provisioning then has to move the whole image (experiment E6b).
	FullClone bool
	// Workload drives the guest after boot (may be nil = idle).
	Workload virt.Workload
	// Context is user-supplied contextualization merged with the
	// orchestrator-generated entries (IP, group members) at boot.
	Context map[string]string
	// Group optionally names a service group; the group's VMs are
	// treated as a unit and learn each other's addresses (§III-A).
	Group string
	// AntiAffinity keeps this VM off any host already holding another
	// member of its Group — so one host failure cannot take out several
	// HDFS DataNode VMs at once. Requires Group.
	AntiAffinity bool
	// Requeue resubmits the VM if its host fails.
	Requeue bool
	// Owner names the tenant the instance belongs to. Owned submissions
	// pass the cloud's TenantGate (quota admission, vm-seconds metering);
	// an empty Owner is unowned and bypasses the gate.
	Owner string
}

func (t Template) validate() error {
	if t.Name == "" {
		return fmt.Errorf("nebula: template with empty name")
	}
	if t.VCPUs < 1 {
		return fmt.Errorf("nebula: template %q with %d vcpus", t.Name, t.VCPUs)
	}
	if t.MemoryBytes <= 0 {
		return fmt.Errorf("nebula: template %q with non-positive memory", t.Name)
	}
	if t.DiskBytes < 0 {
		return fmt.Errorf("nebula: template %q with negative disk", t.Name)
	}
	if t.Image == "" {
		return fmt.Errorf("nebula: template %q with no image", t.Name)
	}
	return nil
}

// VMState is the orchestrator-level life-cycle, mirroring OpenNebula's:
// Pending (queued), Prolog (image staging), Boot, Running, Migrate,
// Shutdown, Done, Failed.
type VMState int

// Orchestrator VM states. Draining is an elastic-scale-down extension: the
// instance still runs but takes no new work; it moves to Shutdown once its
// in-flight work completes (or its drain deadline expires).
const (
	Pending VMState = iota
	Prolog
	Boot
	Running
	Migrating
	Suspended
	Shutdown
	Done
	Failed
	Draining
)

// occupiesHost reports whether a record in this state is resident on the
// host it names — what anti-affinity and a tenant's footprint count. Pending
// has no host yet; Shutdown, Done and Failed are leaving or gone.
func (s VMState) occupiesHost() bool {
	switch s {
	case Prolog, Boot, Running, Migrating, Suspended, Draining:
		return true
	}
	return false
}

// String implements fmt.Stringer.
func (s VMState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Prolog:
		return "prolog"
	case Boot:
		return "boot"
	case Running:
		return "running"
	case Migrating:
		return "migrating"
	case Suspended:
		return "suspended"
	case Shutdown:
		return "shutdown"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Draining:
		return "draining"
	default:
		return fmt.Sprintf("VMState(%d)", int(s))
	}
}
