package main

import "vidperf/internal/core"

// preprocess applies the §3 proxy preprocessing `analyze trace` applies
// before rendering figures (its -filter-proxies default) and returns the
// kept dataset. It is the benchmark's only call into core.FilterProxies,
// so when that duplicate of internal/proxydetect goes, this adapter is
// the one place to change.
func preprocess(ds *core.Dataset) (kept *core.Dataset, total, keptSessions int) {
	res := core.FilterProxies(ds, core.ProxyFilterConfig{})
	return res.Kept, res.TotalSessions, res.KeptSessions
}
