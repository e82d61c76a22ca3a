package chaos

import (
	"sync/atomic"

	"ensdropcatch/internal/obs"
)

// metricSet holds the package's instrumentation handles.
type metricSet struct {
	injected         *obs.CounterVec
	passed           *obs.Counter
	campaignRequests *obs.CounterVec
	campaignFaults   *obs.CounterVec
}

var metrics atomic.Pointer[metricSet]

func init() { InitMetrics(obs.Default) }

// InitMetrics points the package's instrumentation at reg (nil resets
// to obs.Default).
func InitMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default
	}
	metrics.Store(&metricSet{
		injected: reg.CounterVec("chaos_faults_injected_total",
			"Faults injected into requests, by fault mode.", "fault"),
		passed: reg.Counter("chaos_requests_passed_total",
			"Requests a campaign let through cleanly."),
		campaignRequests: reg.CounterVec("chaos_campaign_requests_total",
			"Requests observed by a campaign, by phase.", "phase"),
		campaignFaults: reg.CounterVec("chaos_campaign_faults_total",
			"Faults a campaign injected, by phase and kind.", "phase", "kind"),
	})
}

func m() *metricSet { return metrics.Load() }
