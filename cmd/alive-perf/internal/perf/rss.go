package perf

import (
	"errors"
	"os"
	"strconv"
	"strings"
)

// resetPeakRSS restarts this process's resident-set high-water mark
// (Linux clear_refs), so that the next peakRSS leaves out what came
// before.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSS returns this process's resident-set high-water mark (VmHWM) in
// bytes.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "<n> kB"
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
