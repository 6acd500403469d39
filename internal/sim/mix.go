package sim

// Mix hashes an arbitrary sequence of words into a single 64-bit value
// with the splitmix64 finaliser, one absorption round per word.
//
// It exists for *coordinate-based* seed derivation: callers that need one
// independent PRNG stream per point in a parameter space (for example a
// crash campaign's (campaign seed, system, fault type, attempt index))
// derive each stream's seed as Mix(coordinates...). Because the result
// depends only on the words passed in — never on how many draws some
// other stream consumed — changing the shape of one region of the space
// cannot perturb the streams of another. Contrast a shared seed counter,
// where inserting one extra run shifts every later stream.
//
// Mix is not cryptographic; it is a fast, well-dispersed hash whose
// output is stable forever (campaigns cite seeds, and a seed must
// reproduce the same run on any future version of this code).
func Mix(parts ...uint64) uint64 {
	// Initial state: fractional bits of sqrt(2), so Mix() of no words is
	// not zero and single-word mixes do not degenerate to splitmix64(0..).
	x := uint64(0x6a09e667f3bcc908)
	for _, p := range parts {
		// Advance by the golden-ratio gamma before absorbing, so that
		// position matters: Mix(a, b) and Mix(b, a) disperse differently.
		x += 0x9e3779b97f4a7c15
		z := x ^ p
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return x
}

// FNV1a64 is FNV-1a 64 over b: the module's one frame checksum and path
// hash (txn commit records, the workloads' framed files, the fleet's
// frames, shard routing). Like Mix its output is stable forever — it is
// hash/fnv's New64a, which a test holds it to.
func FNV1a64[T ~string | ~[]byte](b T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}
