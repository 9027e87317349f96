package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLevels are the percentiles a tail metric may report, highest first.
var tailLevels = []float64{99, 95, 90, 75, 50}

// tail returns the highest percentile of xs (nearest rank) that has at
// least ten samples beyond it, and that percentile. With too few samples
// for any level it falls back to the median.
func tail(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLevels {
		i := int(p/100*float64(n)+0.999999) - 1
		if i >= 0 && n-1-i >= 10 {
			return s[i], p
		}
	}
	return median(xs), 50
}

// quartiles formats the min, quartiles, and max of xs for diagnostics.
func quartiles(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 { return s[int(q*float64(len(s)-1)+0.5)] }
	return fmt.Sprintf("min %.4g q1 %.4g med %.4g q3 %.4g max %.4g", s[0], at(0.25), at(0.5), at(0.75), s[len(s)-1])
}

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) accounting, so the
// peak read at the end covers the measured phase and not the benchmark's
// own input generation and reference computation. It fails harmlessly on
// kernels without the interface; the peak then covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// fingerprint is an order-independent digest of a triangle multiset: each
// triangle's corners are sorted, hashed, and the hashes summed under two
// independent mixes, so two listings agree exactly when they hold the same
// triangles in any order (up to a 2^-128 collision chance).
type fingerprint struct {
	N      uint64
	H1, H2 uint64
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (f *fingerprint) add(a, b, c uint32) {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	h := mix64(mix64(mix64(uint64(a))+uint64(b)) + uint64(c))
	f.N++
	f.H1 += h
	f.H2 += mix64(h ^ 0x5851f42d4c957f2d)
}

// fingerprintFile digests a listing file of little-endian uint32 triples.
func fingerprintFile(path string) (fingerprint, error) {
	var fp fingerprint
	f, err := os.Open(path)
	if err != nil {
		return fp, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var rec [12]byte
	for {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			if err == io.EOF {
				return fp, nil
			}
			return fp, fmt.Errorf("read listing %s: %w", path, err)
		}
		fp.add(binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:]), binary.LittleEndian.Uint32(rec[8:]))
	}
}
