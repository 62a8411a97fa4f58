//go:build race

package udptrans

const raceEnabled = true
