// Package videocloud is a from-scratch Go reproduction of "On Construction
// of Cloud IaaS Using KVM and OpenNebula for Video Services" (Yang et al.,
// ICPPW 2012): a private-cloud IaaS (simulated KVM hosts orchestrated by an
// OpenNebula-like engine with live migration), a Hadoop-like PaaS (HDFS +
// MapReduce behind a FUSE-style mount), and a complete video web service
// (upload, parallel FFmpeg-style conversion, Nutch-style search, seekable
// streaming) running on top.
//
// This package is the public facade. The quickest start:
//
//	vc, err := videocloud.New(videocloud.Config{})
//	if err != nil { ... }
//	http.ListenAndServe(":8080", vc.Handler())
//
// That boots four simulated hosts, deploys a NameNode VM, three DataNode
// VMs and a web-server VM as an orchestrated service group, builds HDFS and
// MapReduce over the data VMs, and serves the video site. See DESIGN.md for
// the architecture and EXPERIMENTS.md for the reproduced results; the
// examples/ directory contains runnable walkthroughs and cmd/ the CLIs.
package videocloud

import (
	"videocloud/internal/core"
	"videocloud/internal/experiments"
	"videocloud/internal/metrics"
	"videocloud/internal/migrate"
	"videocloud/internal/nebula"
	"videocloud/internal/stream"
	"videocloud/internal/video"
)

// Config sizes a full-stack deployment; the zero value reproduces the
// paper's small testbed (4 hosts, 3 data VMs, 1 web VM, HDFS RF 3).
type Config = core.Config

// System is the assembled stack: IaaS orchestrator, VM-hosted HDFS and
// MapReduce, and the video website.
type System = core.VideoCloud

// New boots a full System. It returns once every VM of the service group
// is Running and the site is serving.
func New(cfg Config) (*System, error) { return core.New(cfg) }

// ---- IaaS layer (use when only the cloud substrate is needed) ----

// IaaSOptions configures a standalone cloud: its hypervisor driver and
// placement policy. The fabric is fixed at GbE hosts and a 10 GbE
// front-end.
type IaaSOptions = nebula.Options

// Template describes a VM to deploy.
type Template = nebula.Template

// NewIaaS creates a standalone OpenNebula-like cloud with no hosts; add
// hosts, register images, and submit templates against it.
func NewIaaS(opts IaaSOptions) *nebula.Cloud { return nebula.New(opts) }

// Placement policies for the Capacity Manager.
type (
	// PackingPolicy consolidates VMs onto the fewest hosts.
	PackingPolicy = nebula.PackingPolicy
	// StripingPolicy spreads VMs across all hosts.
	StripingPolicy = nebula.StripingPolicy
	// LoadAwarePolicy places on the least CPU-loaded host.
	LoadAwarePolicy = nebula.LoadAwarePolicy
)

// MigrationReport describes a finished live migration.
type MigrationReport = migrate.Report

// ---- media helpers ----

// MediaSpec describes a video encoding (codec, resolution, frame rate,
// GOP cadence, bitrate).
type MediaSpec = video.Spec

// Codec identifies a video codec ("mpeg4", "h264", "vp8", "theora").
type Codec = video.Codec

// Resolution is a frame size.
type Resolution = video.Resolution

// Standard resolutions; the paper's player serves R720p.
var (
	R360p  = video.R360p
	R480p  = video.R480p
	R720p  = video.R720p
	R1080p = video.R1080p
)

// GenerateVideo synthesizes a deterministic source media file, the stand-in
// for a user's camera upload.
func GenerateVideo(spec MediaSpec, durationSeconds int, seed uint64) ([]byte, error) {
	return video.Generate(spec, durationSeconds, seed)
}

// TranscodeFarm converts media in parallel across named worker nodes
// (Figure 16's split/convert/merge pipeline).
type TranscodeFarm = video.Farm

// Player is a headless streaming client with Range-based seeking.
type Player = stream.Player

// ---- experiments ----

// RunAllExperiments executes every reproduction experiment (E1-E10 plus
// ablations) and returns their result tables — what cmd/benchcloud prints
// and EXPERIMENTS.md records.
func RunAllExperiments() []*metrics.Table { return experiments.All() }
