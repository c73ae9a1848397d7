//go:build race

package ngram

func init() { raceEnabled = true }
