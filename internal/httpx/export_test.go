package httpx

// SetMaxResponseBytes sets the response read cap and returns a func that
// restores the previous one.
func SetMaxResponseBytes(n int64) (restore func()) {
	old := maxResponseBytes
	maxResponseBytes = n
	return func() { maxResponseBytes = old }
}
