package serve

import (
	"context"
	"encoding/json"
	"errors"

	"blinkml/internal/dataset"
)

// resolveAuditSource is the resolver of the in-process reference that
// TestClusterAuditReplayHonoursRecordedSplit compares a task replay against:
// audit.LocalReplayer over it calls core.ReplayGuarantee directly, through
// none of the task path.
func (s *Server) resolveAuditSource(_ context.Context, raw json.RawMessage) (dataset.Source, error) {
	var ref DatasetRef
	if err := json.Unmarshal(raw, &ref); err != nil {
		return nil, err
	}
	switch {
	case ref.Synthetic != nil:
		return ref.Synthetic.Build()
	case ref.Inline != nil:
		return ref.Inline.Build()
	case ref.ID != "":
		return s.store.Get(ref.ID)
	default:
		return nil, errors.New("serve: missing dataset")
	}
}

// clusterReplayer is the name that test knows the server's one replayer by;
// on a coordinator it replays on the fleet.
type clusterReplayer = taskReplayer
