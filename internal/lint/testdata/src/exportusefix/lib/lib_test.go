package lib

var _ = InTestOnly
