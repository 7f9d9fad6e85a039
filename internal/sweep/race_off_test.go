//go:build !race

package sweep

// raceEnabled scales the differential battery down under the race
// detector (see TestCellDifferential).
const raceEnabled = false
