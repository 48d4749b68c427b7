// Package minhash implements min-wise independent permutation signatures
// (Broder et al.), the textual-similarity LSH family of the paper's §5.1.
//
// Each hash function h_i maps a shingle (q-gram) to a 64-bit value through
// a seeded mixer; a record's signature component i is the minimum of
// h_i over its shingle set. Two records agree on component i with
// probability equal to the Jaccard similarity of their shingle sets.
package minhash

import (
	"math/rand"
)

// emptyMin is the signature component of an empty shingle set. Using the
// maximum value means two empty records agree (Jaccard(∅,∅)=1 by our
// convention) while an empty and a non-empty record almost surely disagree.
const emptyMin = ^uint64(0)

// Family is a set of n minhash functions with fixed random seeds.
type Family struct {
	seeds []uint64
}

// NewFamily creates n minhash functions derived deterministically from the
// given seed.
func NewFamily(n int, seed int64) *Family {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Uint64() | 1 // avoid the degenerate zero seed
	}
	return &Family{seeds: seeds}
}

// Size returns the number of hash functions (the signature length).
func (f *Family) Size() int { return len(f.seeds) }

// baseHash maps a shingle to a 64-bit value; per-function values are
// derived from it by seeded mixing so each shingle is string-hashed once.
// FNV-64a, written out so hashing a gram neither allocates a hasher nor
// copies the string to bytes (hash/fnv does both).
//
//semblock:hotpath
func baseHash(gram string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(gram); i++ {
		h ^= uint64(gram[i])
		h *= prime64
	}
	return h
}

// BaseHash exposes the shingle base hash (FNV-64a) for callers that stream
// grams through textual.VisitQGrams instead of materialising a gram slice —
// the interned-hashing fast path of lsh.Signer. BaseHash(g) equals the
// value ShingleHashes records for g.
func BaseHash(gram string) uint64 { return baseHash(gram) }

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality 64-bit mixer.
//
//semblock:hotpath
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix64 applies the SplitMix64 finalizer, the repository's standard 64-bit
// mixer, exported for key derivation outside the package (e.g. folding
// semhash bit indices into bucket keys).
func Mix64(x uint64) uint64 { return splitmix64(x) }

// Signature computes the minhash signature of a shingle multiset.
// Duplicate shingles are harmless (min is idempotent). The sig slice is
// allocated per call; use SignatureInto to reuse buffers in hot loops.
func (f *Family) Signature(grams []string) []uint64 {
	sig := make([]uint64, len(f.seeds))
	f.SignatureInto(grams, sig)
	return sig
}

// SignatureInto computes the signature into the provided slice, which must
// have length Size().
//
//semblock:hotpath
func (f *Family) SignatureInto(grams []string, sig []uint64) {
	for i := range sig {
		sig[i] = emptyMin
	}
	for _, g := range grams {
		b := baseHash(g)
		for i, s := range f.seeds {
			if h := splitmix64(b ^ s); h < sig[i] {
				sig[i] = h
			}
		}
	}
}

// ShingleHashes maps each shingle to its 64-bit base hash — the
// family-independent half of signature computation (the string hashing; the
// per-function seeded mixing is the family-dependent half). A hash slice
// computed once can feed SignatureFromHashesInto and
// SignatureSubsetFromHashesInto any number of times, which is how the
// shared-log serving layer (internal/stream.SharedLog) hashes each record's
// q-grams exactly once while every table shard derives only its own
// signature components from them.
//
//semblock:hotpath
func ShingleHashes(grams []string) []uint64 {
	hashes := make([]uint64, len(grams))
	for i, g := range grams {
		hashes[i] = baseHash(g)
	}
	return hashes
}

// SignatureFromHashesInto computes the signature from precomputed shingle
// base hashes (ShingleHashes) into sig, which must have length Size(). It is
// equivalent to SignatureInto over the shingles the hashes came from.
//
//semblock:hotpath
func (f *Family) SignatureFromHashesInto(hashes []uint64, sig []uint64) {
	for i := range sig {
		sig[i] = emptyMin
	}
	for _, b := range hashes {
		for i, s := range f.seeds {
			if h := splitmix64(b ^ s); h < sig[i] {
				sig[i] = h
			}
		}
	}
}

// SignatureSubsetFromHashesInto computes only the selected signature
// components from precomputed shingle base hashes into sig (length Size());
// unselected components are left at the empty-set sentinel and must not be
// read. Selected components equal the corresponding components of a full
// SignatureInto run over the originating shingles.
//
//semblock:hotpath
func (f *Family) SignatureSubsetFromHashesInto(hashes []uint64, components []int, sig []uint64) {
	for i := range sig {
		sig[i] = emptyMin
	}
	for _, b := range hashes {
		for _, i := range components {
			if h := splitmix64(b ^ f.seeds[i]); h < sig[i] {
				sig[i] = h
			}
		}
	}
}

// Signature2Into computes, per hash function, the minimum and the second
// smallest distinct hash value over the shingle set. The second minimum is
// the natural perturbation target for multi-probe LSH: it is the value the
// minimum would take if the minimising shingle were absent. For shingle
// sets with fewer than two distinct hashes the second minimum is emptyMin.
// Both slices must have length Size().
//
//semblock:hotpath
func (f *Family) Signature2Into(grams []string, sig, sig2 []uint64) {
	for i := range sig {
		sig[i] = emptyMin
		sig2[i] = emptyMin
	}
	for _, g := range grams {
		b := baseHash(g)
		for i, s := range f.seeds {
			h := splitmix64(b ^ s)
			switch {
			case h < sig[i]:
				sig2[i] = sig[i]
				sig[i] = h
			case h > sig[i] && h < sig2[i]:
				sig2[i] = h
			}
		}
	}
}

// Agreement returns the fraction of signature components on which the two
// signatures agree — an unbiased estimator of the Jaccard similarity of
// the underlying shingle sets.
//
//semblock:hotpath
func Agreement(a, b []uint64) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	n := 0
	for i := range a {
		if a[i] == b[i] {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

// BandKey hashes one band (a k-slice of a signature) into a single bucket
// key. The band index participates so that equal slices in different bands
// do not collide across tables.
//
//semblock:hotpath
func BandKey(band int, slice []uint64) uint64 {
	h := splitmix64(uint64(band) ^ 0xabcdef1234567890)
	for _, v := range slice {
		h = splitmix64(h ^ v)
	}
	return h
}
