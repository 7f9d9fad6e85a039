//go:build !race

package population

// raceEnabled scales the differential battery down under the race
// detector (see diffSpecs).
const raceEnabled = false
