package emax

import "math"

// radixItem is one element of a sort: the order-preserving key of a value
// and the value's index in the input.
type radixItem struct {
	key uint64
	idx int32
}

// Sorter orders values into the canonical ascending order: ascending by
// value, values that compare equal in ascending index order — the
// permutation sort.SliceStable produces. Inputs shorter than
// insertionCutoff are ordered by a stable insertion sort, longer ones by a
// stable radix sort. Its scratch is two ping-pong buffers of key-index
// pairs; a zero Sorter is ready to use, and the buffers grow to the longest
// input sorted through it and are reused afterwards, so steady-state sorts
// of same-sized inputs do not allocate. A Sorter is not safe for concurrent
// use; give each worker its own.
type Sorter struct {
	src, dst []radixItem
}

// insertionCutoff is the input length from which Sorter radix-sorts:
// below it, the O(n²) insertion sort beats the radix sort's fixed cost of
// clearing and prefix-summing its digit histograms.
const insertionCutoff = 64

// sortKey maps v to a uint64 whose unsigned order is v's numeric order: the
// sign bit is flipped for non-negative values and every bit for negative
// ones. Adding +0 first turns −0 into +0, so values that compare equal get
// equal keys and stay in index order.
func sortKey(v float64) uint64 {
	k := math.Float64bits(v + 0)
	return k ^ (uint64(int64(k)>>63) | 1<<63)
}

// sort returns vals' indices in canonical order, each with its value's
// key: by insertion when there are fewer than insertionCutoff, else by a
// least-significant-digit radix sort with 8-bit digits — one pass builds
// the keys and all eight digit histograms, then each digit is one O(N)
// scatter. A digit every key shares (the OR and AND of the keys agree on
// it) is skipped, which drops the sign and the high exponent bits of
// same-signed, similar-magnitude inputs. Stability keeps equal keys in
// index order. vals must not contain NaN. The result aliases the sorter's
// scratch and is valid until its next sort.
func (s *Sorter) sort(vals []float64) []radixItem {
	n := len(vals)
	if cap(s.src) < n {
		s.src = make([]radixItem, n)
		s.dst = make([]radixItem, n)
	}
	src, dst := s.src[:n], s.dst[:n]
	if n < insertionCutoff {
		for i, v := range vals {
			it := radixItem{key: sortKey(v), idx: int32(i)}
			j := i
			for ; j > 0 && src[j-1].key > it.key; j-- {
				src[j] = src[j-1]
			}
			src[j] = it
		}
		return src
	}
	var counts [8][256]int32
	or, and := uint64(0), ^uint64(0)
	for i, v := range vals {
		k := sortKey(v)
		src[i] = radixItem{key: k, idx: int32(i)}
		or |= k
		and &= k
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	differ := or ^ and
	for d := range counts {
		shift := uint(8 * d)
		if byte(differ>>shift) == 0 {
			continue
		}
		c := &counts[d]
		var pos int32
		for b, cnt := range c {
			c[b] = pos
			pos += cnt
		}
		for _, it := range src {
			b := byte(it.key >> shift)
			dst[c[b]] = it
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}
