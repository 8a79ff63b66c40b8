package cache

// refLookup and refInsert are Lookup and Insert as two separate scans of the
// set: the reference model Probe and Fill must reproduce (FuzzCacheProbe).

func refLookup(c *Cache, addr uint32, touch bool) *Line {
	tag := addr >> c.blockShift
	set := c.set(addr)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			if touch {
				c.tick++
				set[i].lru = c.tick
			}
			return &set[i]
		}
	}
	return nil
}

func refInsert(c *Cache, addr uint32) (*Line, Line, bool) {
	tag := addr >> c.blockShift
	set := c.set(addr)
	victim := &set[0]
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			victim = &set[i]
			c.tick++
			victim.lru = c.tick
			return victim, Line{}, false
		}
		if !set[i].Valid {
			victim = &set[i]
		} else if victim.Valid && set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	var evicted Line
	had := victim.Valid
	if had {
		evicted = *victim
		c.Evictions++
	}
	c.tick++
	*victim = Line{Tag: tag, Valid: true, lru: c.tick}
	return victim, evicted, had
}
