package checkpoint

// The state-file and manifest codecs, for the external tests (which
// build real captures through core, and core imports this package).
var (
	EncodeProcState = encodeProcState
	DecodeProcState = decodeProcState
	EncodeManifest  = encodeManifest
	DecodeManifest  = decodeManifest
)
