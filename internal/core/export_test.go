package core

// LiveAssignment appends, for every live request in active-list order, its
// slot and the box serving it (−1 when none does): the matching a round
// ended with, for the package's external tests.
func LiveAssignment(s *System, dst []int32) []int32 {
	for _, slot := range s.matcher.ActiveLefts() {
		dst = append(dst, slot, int32(s.matcher.Server(int(slot))))
	}
	return dst
}
