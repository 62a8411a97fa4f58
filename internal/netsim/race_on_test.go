//go:build race

package netsim

const raceEnabled = true
