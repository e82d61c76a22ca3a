package dataset

import (
	"sync/atomic"

	"ensdropcatch/internal/obs"
)

// metricSet holds the package's instrumentation handles.
type metricSet struct {
	parseErrors     *obs.Counter
	spoolRecoveries *obs.Counter
}

var pkgMetrics atomic.Pointer[metricSet]

func init() { InitMetrics(obs.Default) }

// InitMetrics points the package's instrumentation at reg (nil resets
// to obs.Default).
func InitMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default
	}
	pkgMetrics.Store(&metricSet{
		parseErrors: reg.Counter("dataset_parse_errors_total",
			"Malformed numeric fields rejected while assembling the dataset."),
		spoolRecoveries: reg.Counter("dataset_spool_recoveries_total",
			"Torn trailing spool records dropped and re-crawled on resume."),
	})
}

func pm() *metricSet { return pkgMetrics.Load() }
