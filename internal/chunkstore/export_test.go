package chunkstore

// LowerSpillPairs is lowerSpillPairs for this directory's external tests,
// which build through the packages above chunkstore.
var LowerSpillPairs = lowerSpillPairs
