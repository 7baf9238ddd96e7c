package plan

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// StealMeter measures the share of the host's CPU time the hypervisor
// gave to other guests over an interval. On a shared virtual machine
// such episodes slow every metric of a run at once; the share, kept in
// the run's record, tells them apart from a change to the program.
type StealMeter struct{ total, steal float64 }

// StartSteal reads the host's CPU time counters.
func StartSteal() (StealMeter, error) {
	total, steal, err := readCPU()
	return StealMeter{total, steal}, err
}

// Share returns the stolen share of CPU time since StartSteal.
func (m StealMeter) Share() (float64, error) {
	total, steal, err := readCPU()
	if err != nil || total == m.total {
		return 0, err
	}
	return (steal - m.steal) / (total - m.total), nil
}

// readCPU sums the first line of /proc/stat ("cpu user nice system idle
// iowait irq softirq steal ..."): all CPU time, and the stolen part.
func readCPU() (total, steal float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	// guest and guest_nice (fields 9 and 10) are already counted in user
	// and nice.
	for i, f := range fields[1:min(len(fields), 9)] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}
