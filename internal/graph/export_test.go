package graph

// ScratchDist exposes the distance array of the scratch's most recent
// BFSStats run to the external tests.
func ScratchDist(s *BFSScratch) []int32 { return s.dist }
