package checkpoint

// The state-file codec, for the external tests (which build real captures
// through core, and core imports this package).
var (
	EncodeProcState = encodeProcState
	DecodeProcState = decodeProcState
)
