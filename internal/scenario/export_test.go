package scenario

// WarmRunKey exposes warmRunKey to the external warm-key tests.
var WarmRunKey = warmRunKey
