package cluster

import (
	"encoding/json"
	"fmt"
	"os"
)

// Machine specs serialise to plain JSON so users can describe their own
// clusters for cmd/greenbench without recompiling. The exported struct
// fields are the schema; LoadSpec validates on the way in.

// LoadSpec reads and validates a spec written as JSON, by hand or by
// json.Marshal.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("cluster: parsing %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	return &s, nil
}
