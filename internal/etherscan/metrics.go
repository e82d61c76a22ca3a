package etherscan

import (
	"sync/atomic"

	"ensdropcatch/internal/obs"
)

// metricSet holds the package's instrumentation handles.
type metricSet struct {
	clientRequests    *obs.Counter
	clientErrors      *obs.Counter
	clientRateLimited *obs.Counter
	clientPages       *obs.Counter
	clientRows        *obs.Counter
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
		clientRequests: reg.Counter("etherscan_client_requests_total",
			"API requests issued by the Etherscan client."),
		clientErrors: reg.Counter("etherscan_client_errors_total",
			"Transport or API errors seen by the Etherscan client."),
		clientRateLimited: reg.Counter("etherscan_client_ratelimited_total",
			"Responses carrying the server's rate-limit message."),
		clientPages: reg.Counter("etherscan_client_pages_total",
			"txlist pages fetched."),
		clientRows: reg.Counter("etherscan_client_rows_total",
			"Transaction rows received (before dedup)."),
	})
}

func m() *metricSet { return metrics.Load() }
