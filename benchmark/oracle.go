package main

import "datacell"

// The oracle recomputes a window from the generated input with plain maps
// and loops, sharing nothing with the engine but the statement's meaning.
// Results are compared through a 64-bit checksum that ignores row order
// (the statements carry no ORDER BY) and nothing else: every value is an
// integer, so the comparison is bit-exact.

// mix64 is the finalizer of splitmix64, used to hash one value into a row.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rowSeed starts every row hash; rowHash folds one result row.
const rowSeed = 0x243f6a8885a308d3

func rowHash(vals ...int64) uint64 {
	h := uint64(rowSeed)
	for _, v := range vals {
		h = mix64(h ^ uint64(v))
	}
	return h
}

// foldRows turns per-row hashes into the window checksum: the wrapping sum
// (order-free) finished with the row count.
func foldRows(sum uint64, rows int) uint64 { return mix64(sum ^ uint64(rows)<<1 ^ 1) }

// tableChecksum folds a received result. ok is false when a column is not
// an integer column, which no statement of the benchmark produces.
func tableChecksum(t *datacell.Table) (sum uint64, ok bool) {
	var buf [4][]int64 // no statement of the benchmark has more columns: no allocation per result
	cols := buf[:0]
	for _, c := range t.Cols {
		if c.Type() != datacell.Int64 {
			return 0, false
		}
		cols = append(cols, c.Int64s())
	}
	n := t.NumRows()
	var acc uint64
	for r := 0; r < n; r++ {
		h := uint64(rowSeed) // rowHash, column-wise
		for _, col := range cols {
			h = mix64(h ^ uint64(col[r]))
		}
		acc += h
	}
	return foldRows(acc, n), true
}

// windowInput regenerates the rows of window number win (1-based) of q on
// one stream: slides win-1 .. win-1+RANGE/SLIDE-1.
func windowInput(w *workload, q *query, seed uint64, stream, win int) (k, v []int64) {
	n := w.slidesToFirst(q)
	k = make([]int64, n*w.slideRows)
	v = make([]int64, n*w.slideRows)
	for s := 0; s < n; s++ {
		lo, hi := s*w.slideRows, (s+1)*w.slideRows
		fillSlide(seed, stream, win-1+s, w.keys, k[lo:hi], v[lo:hi])
	}
	return k, v
}

// oracleChecksum recomputes window win of q from scratch.
func oracleChecksum(w *workload, q *query, seed uint64, win int) uint64 {
	k, v := windowInput(w, q, seed, 0, win)
	switch q.shape {
	case shapeGrouped:
		type agg struct{ sum, count int64 }
		groups := map[int64]*agg{}
		for i := range k {
			if v[i] < q.a {
				continue
			}
			g := groups[k[i]]
			if g == nil {
				g = &agg{}
				groups[k[i]] = g
			}
			g.sum += v[i]
			g.count++
		}
		var acc uint64
		rows := 0
		for key, g := range groups {
			if g.count > q.h {
				acc += rowHash(key, g.sum, g.count)
				rows++
			}
		}
		return foldRows(acc, rows)
	case shapeJoin:
		k2, _ := windowInput(w, q, seed, 1, win)
		right := map[int64]int64{}
		for _, key := range k2 {
			right[key]++
		}
		var count, sum int64
		for i := range k {
			if v[i] < q.a {
				m := right[k[i]]
				count += m
				sum += m * v[i]
			}
		}
		return foldRows(rowHash(count, sum), 1)
	default: // shapeScalar
		var sum int64
		for _, x := range v {
			sum += x
		}
		return foldRows(rowHash(int64(len(v)), sum), 1)
	}
}

// checkWindows picks n windows spread evenly over [first, last] (both
// always included) — the windows the oracle verifies for one query.
func checkWindows(first, last, n int) []int {
	if last < first {
		return nil
	}
	if last-first+1 <= n {
		out := make([]int, 0, last-first+1)
		for w := first; w <= last; w++ {
			out = append(out, w)
		}
		return out
	}
	out := make([]int, n)
	for i := range out {
		out[i] = first + i*(last-first)/(n-1)
	}
	return out
}
