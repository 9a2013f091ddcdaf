package bench

import (
	"fmt"
	"io"
)

// WriteTable renders rows as an aligned text table.
func WriteTable(w io.Writer, title string, rows []Row) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-16s %-12s %-5s %10s %10s %12s %12s\n",
		"model", "config", "mode", "tput(x)", "lat(x)", "tput(b/s)", "lat(ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-12s %-5s %10.2f %10.2f %12.2f %12.2f\n",
			r.Model, r.Config, r.Mode, r.ThroughputX, r.LatencyX, r.Throughput, r.LatencyMS)
	}
}
