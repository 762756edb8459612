package httpcache

import "github.com/exsample/exsample/internal/httpx"

// The package's tests predate the shared transport and still use these
// names for what it now owns.
type wireDetection = httpx.Detection

const maxRequestBytes = httpx.MaxRequestBytes
