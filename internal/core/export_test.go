package core

// Hooks only this package's tests call: they live in a test file so the
// package exports only what the module runs (TestNoTestOnlyExports).

import (
	"videocloud/internal/hdfs"
	"videocloud/internal/ingress"
	"videocloud/internal/metrics"
	"videocloud/internal/nebula"
)

// Elastic returns the running controller, nil while disarmed.
func (vc *VideoCloud) Elastic() *nebula.ElasticController { return vc.elastic }

// Ingress returns the fleet's load balancer, nil for a single-frontend
// deployment.
func (vc *VideoCloud) Ingress() *ingress.Balancer { return vc.tier.Ingress }

// Metrics returns stack-level counters.
func (vc *VideoCloud) Metrics() *metrics.Registry { return vc.reg }

// Healer returns the storage tier's healing loop, nil while disarmed.
func (vc *VideoCloud) Healer() *hdfs.Healer { return vc.healer }
