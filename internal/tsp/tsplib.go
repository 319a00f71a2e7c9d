package tsp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ReadTSPLIB parses a symmetric TSPLIB95 instance. Supported
// EDGE_WEIGHT_TYPEs: EUC_2D, CEIL_2D, GEO, ATT and EXPLICIT with
// EDGE_WEIGHT_FORMAT FULL_MATRIX, UPPER_ROW, LOWER_DIAG_ROW,
// UPPER_DIAG_ROW — which covers all five instances in the paper's
// Table 1(b) (ulysses16: GEO, bayg29: UPPER_ROW, dantzig42:
// LOWER_DIAG_ROW, berlin52 and st70: EUC_2D).
func ReadTSPLIB(r io.Reader) (*Instance, error) {
	// maxDimension bounds what an untrusted DIMENSION header can make
	// the reader allocate before a single coordinate or weight arrives.
	// An Instance holds a dense c×c distance matrix, which is already
	// 4 GiB at 2¹⁵ cities.
	const maxDimension = 1 << 15

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)

	var (
		name       string
		dim        int
		weightType string
		weightFmt  string
	)
	// Header: KEY : VALUE lines until a *_SECTION keyword.
	var section string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		if strings.HasSuffix(upper, "_SECTION") || upper == "NODE_COORD_SECTION" || upper == "EDGE_WEIGHT_SECTION" {
			section = strings.TrimSpace(upper)
			break
		}
		if upper == "EOF" {
			break
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("tsp: malformed header line %q", line)
		}
		key = strings.ToUpper(strings.TrimSpace(key))
		value = strings.TrimSpace(value)
		switch key {
		case "NAME":
			name = value
		case "TYPE":
			if v := strings.ToUpper(value); v != "TSP" {
				return nil, fmt.Errorf("tsp: unsupported TYPE %q", value)
			}
		case "DIMENSION":
			d, err := strconv.Atoi(value)
			if err != nil || d < 3 || d > maxDimension {
				return nil, fmt.Errorf("tsp: bad DIMENSION %q", value)
			}
			dim = d
		case "EDGE_WEIGHT_TYPE":
			weightType = strings.ToUpper(value)
		case "EDGE_WEIGHT_FORMAT":
			weightFmt = strings.ToUpper(value)
		case "COMMENT", "DISPLAY_DATA_TYPE", "NODE_COORD_TYPE":
			// informational
		default:
			// Ignore unknown headers; TSPLIB files carry many.
		}
	}
	if dim == 0 {
		return nil, fmt.Errorf("tsp: missing DIMENSION")
	}

	switch section {
	case "NODE_COORD_SECTION":
		return readCoordSection(sc, name, dim, weightType)
	case "EDGE_WEIGHT_SECTION":
		return readWeightSection(sc, name, dim, weightFmt)
	case "":
		return nil, fmt.Errorf("tsp: no data section found")
	default:
		return nil, fmt.Errorf("tsp: unsupported section %q", section)
	}
}

func readCoordSection(sc *bufio.Scanner, name string, dim int, weightType string) (*Instance, error) {
	var rule func(x1, y1, x2, y2 float64) int32
	switch weightType {
	case "EUC_2D":
		rule = EuclidDistance
	case "CEIL_2D":
		rule = func(x1, y1, x2, y2 float64) int32 {
			dx, dy := x1-x2, y1-y2
			return int32(ceilSqrt(dx*dx + dy*dy))
		}
	case "GEO":
		rule = GeoDistance
	case "ATT":
		rule = AttDistance
	default:
		return nil, fmt.Errorf("tsp: unsupported EDGE_WEIGHT_TYPE %q for coordinates", weightType)
	}
	xs := make([]float64, dim)
	ys := make([]float64, dim)
	seen := make([]bool, dim)
	count := 0
	for count < dim && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "EOF") {
			break
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("tsp: malformed coordinate line %q", line)
		}
		id, err1 := strconv.Atoi(f[0])
		x, err2 := strconv.ParseFloat(f[1], 64)
		y, err3 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || err3 != nil || id < 1 || id > dim {
			return nil, fmt.Errorf("tsp: malformed coordinate line %q", line)
		}
		if seen[id-1] {
			return nil, fmt.Errorf("tsp: duplicate city %d", id)
		}
		seen[id-1] = true
		xs[id-1], ys[id-1] = x, y
		count++
	}
	if count != dim {
		return nil, fmt.Errorf("tsp: got %d coordinates, want %d", count, dim)
	}
	t, err := FromCoords(xs, ys, rule)
	if err != nil {
		return nil, err
	}
	t.SetName(name)
	return t, nil
}

// ceilSqrt returns ⌈√d⌉ for non-negative d. math.Sqrt is correctly
// rounded, so exact integer squares (all < 2⁵³ here) come out exact and
// Ceil does not overshoot them.
func ceilSqrt(d float64) int64 {
	if d <= 0 {
		return 0
	}
	return int64(math.Ceil(math.Sqrt(d)))
}

func readWeightSection(sc *bufio.Scanner, name string, dim int, format string) (*Instance, error) {
	// Collect all numbers first; TSPLIB wraps rows arbitrarily.
	var nums []int64
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "EOF") || strings.HasSuffix(strings.ToUpper(line), "_SECTION") {
			break
		}
		for _, f := range strings.Fields(line) {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("tsp: bad weight %q", f)
			}
			nums = append(nums, v)
		}
	}
	t := NewInstance(dim)
	t.SetName(name)
	idx := 0
	next := func() (int64, error) {
		if idx >= len(nums) {
			return 0, fmt.Errorf("tsp: weight section too short (%d values)", len(nums))
		}
		v := nums[idx]
		idx++
		return v, nil
	}
	set := func(i, j int, v int64) {
		if i != j {
			t.SetDist(i, j, int32(v))
		}
	}
	switch format {
	case "FULL_MATRIX":
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				v, err := next()
				if err != nil {
					return nil, err
				}
				set(i, j, v)
			}
		}
	case "UPPER_ROW":
		for i := 0; i < dim; i++ {
			for j := i + 1; j < dim; j++ {
				v, err := next()
				if err != nil {
					return nil, err
				}
				set(i, j, v)
			}
		}
	case "UPPER_DIAG_ROW":
		for i := 0; i < dim; i++ {
			for j := i; j < dim; j++ {
				v, err := next()
				if err != nil {
					return nil, err
				}
				set(i, j, v)
			}
		}
	case "LOWER_DIAG_ROW":
		for i := 0; i < dim; i++ {
			for j := 0; j <= i; j++ {
				v, err := next()
				if err != nil {
					return nil, err
				}
				set(i, j, v)
			}
		}
	default:
		return nil, fmt.Errorf("tsp: unsupported EDGE_WEIGHT_FORMAT %q", format)
	}
	if idx != len(nums) {
		return nil, fmt.Errorf("tsp: %d extra values in weight section", len(nums)-idx)
	}
	return t, nil
}

// WriteTSPLIB serializes the instance as an EXPLICIT FULL_MATRIX TSPLIB
// file, which any TSPLIB consumer can read back.
func WriteTSPLIB(w io.Writer, t *Instance) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "NAME: %s\n", t.name)
	fmt.Fprintf(bw, "TYPE: TSP\n")
	fmt.Fprintf(bw, "DIMENSION: %d\n", t.c)
	fmt.Fprintf(bw, "EDGE_WEIGHT_TYPE: EXPLICIT\n")
	fmt.Fprintf(bw, "EDGE_WEIGHT_FORMAT: FULL_MATRIX\n")
	fmt.Fprintf(bw, "EDGE_WEIGHT_SECTION\n")
	for i := 0; i < t.c; i++ {
		for j := 0; j < t.c; j++ {
			if j > 0 {
				fmt.Fprint(bw, " ")
			}
			fmt.Fprintf(bw, "%d", t.Dist(i, j))
		}
		fmt.Fprintln(bw)
	}
	fmt.Fprintln(bw, "EOF")
	return bw.Flush()
}
