"""Test package (unique import path for same-basename test modules)."""
