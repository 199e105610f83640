"""Independent implementations kept only to pin statistics and streams in tests."""
