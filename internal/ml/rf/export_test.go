package rf

// PopcountShare scans every probe and counts the forest evaluations the
// popcount path (countVotes) answered, of all of them. Exported for the
// external test that builds the bank core trains (refbank_test.go).
func (b *Bank) PopcountShare(probes [][]float64) (answered, evaluated int) {
	accepted := make([]uint64, (len(b.forests)+63)/64)
	var words []uint64
	for _, x := range probes {
		words = b.Scan(x, words, accepted)
		for i := range b.forests {
			if _, ok := b.countVotes(&b.forests[i], words); ok {
				answered++
			}
			evaluated++
		}
	}
	return answered, evaluated
}
