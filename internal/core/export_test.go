package core

// New returns a scheduler configured by cfg, or cfg's error. Production code
// configures a zero Scheduler with Reset; the tests in this directory use
// New for brevity.
func New(cfg Config) (*Scheduler, error) {
	s := &Scheduler{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Promotions reports how many stages s promoted to the medium level, for
// the external tests of this package.
func Promotions(s *Scheduler) uint64 { return s.promotions }
