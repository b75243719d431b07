package main

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives groups 1 to 3 from the untraced reference
// slices, the traced slices, the harness spans, and what the workload's
// finish reported (job phases, recovery time, background appender).
func layerMetrics(ref, traced []sliceStat, spans map[string]spanStat, extra map[string]float64) map[string]float64 {
	v := map[string]float64{}

	// Group 1: totals over the traced slices, per op.
	var net netCounts
	var ops, userBytes float64
	var tracedWall float64
	for i := range traced {
		net = net.add(traced[i].net)
		ops += float64(traced[i].ops)
		userBytes += float64(traced[i].userBytes)
		tracedWall += traced[i].wall.Seconds()
	}
	v["transport.frames_per_op"] = div(float64(net.totalFrames()), ops)
	v["transport.wire_bytes_per_user_byte"] = div(float64(net.totalBytes()), userBytes)
	for class, name := range map[netClass]string{classVM: "vm", classPM: "pm", classProvider: "provider", classDHT: "dht", classNS: "ns"} {
		v[name+".frames_per_op"] = div(float64(net.frames[class]), ops)
		v[name+".send_wait_ms_per_op"] = div(ms(net.sendWait[class]), ops)
	}
	v["provider.bytes_per_op"] = div(float64(net.bytes[classProvider]), ops)
	v["dht.bytes_per_op"] = div(float64(net.bytes[classDHT]), ops)
	v["mr.frames_per_op"] = div(float64(net.mrFrames), ops)

	// Group 2.
	for metric, span := range map[string]string{
		"bsfs.append_open_ms":  "bsfs.append_open",
		"bsfs.write_ms":        "bsfs.write",
		"bsfs.flush_ms":        "bsfs.flush",
		"bsfs.close_ms":        "bsfs.close",
		"bsfs.stat_ms":         "bsfs.stat",
		"bsfs.open_version_ms": "bsfs.open_version",
		"bsfs.read_ms":         "bsfs.read",
		"bsfs.reader_close_ms": "bsfs.reader_close",
		"bsfs.delete_ms":       "bsfs.delete",
	} {
		v[metric] = meanMs(spans, span)
	}
	if st := spans["op"]; st.calls > 0 {
		v["harness.op_self_ms"] = ms(st.self) / float64(st.calls)
	} else {
		v["harness.op_self_ms"] = 0
	}
	var refWall, refOps float64
	for i := range ref {
		refWall += ref[i].wall.Seconds()
		refOps += float64(ref[i].ops)
	}
	v["harness.trace_overhead_ratio"] = div(div(tracedWall, ops), div(refWall, refOps))

	// Group 3: the untraced reference pass.
	var c cacheDelta
	var jrec, jbytes, jops, nodes, pages, gcCycles float64
	var gcPause, heapMax, reclaim, rotations, leftover float64
	for i := range ref {
		s := &ref[i]
		c.hits += s.cache.hits
		c.misses += s.cache.misses
		c.readahead += s.cache.readahead
		c.evictions += s.cache.evictions
		c.fetches += s.cache.fetches
		jrec += float64(s.journalRecs)
		if s.journalBytes >= 0 { // a compaction during the slice shrinks the log: skip it
			jbytes += float64(s.journalBytes)
			jops += float64(s.ops)
		}
		nodes += float64(s.dhtNodes)
		pages += float64(s.pages)
		gcCycles += float64(s.gcCycles)
		gcPause += ms(s.gcPause)
		if h := float64(s.heapInuse) / (1 << 20); h > heapMax {
			heapMax = h
		}
		if s.rotated {
			rotations++
			reclaim += ms(s.reclaim)
			leftover += float64(s.leftover)
		}
	}
	v["cache.hit_ratio"] = div(float64(c.hits), float64(c.hits+c.misses))
	v["cache.readahead_pages_per_op"] = div(float64(c.readahead), refOps)
	v["cache.provider_fetches_per_op"] = div(float64(c.fetches), refOps)
	v["cache.evictions_per_op"] = div(float64(c.evictions), refOps)
	v["vm.journal_records_per_op"] = div(jrec, refOps)
	v["vm.journal_bytes_per_op"] = div(jbytes, jops)
	v["dht.nodes_per_op"] = div(nodes, refOps)
	v["provider.pages_per_op"] = div(pages, refOps)
	v["gc.reclaim_ms_per_rotation"] = div(reclaim, rotations)
	v["gc.leftover_bytes"] = leftover
	v["go.gc_cycles_per_kop"] = div(gcCycles*1000, refOps)
	v["go.gc_pause_ms_per_s"] = div(gcPause, refWall)
	v["go.heap_inuse_mb_max"] = heapMax
	v["provider.imbalance"] = median(perSlice(ref, func(s *sliceStat) float64 { return s.imbalance }))
	for name, sum := range timings(ref) {
		v[name] = sum.Median
	}

	// Reported by the workload's finish; zero where the workload has none.
	for _, name := range []string{
		"vm.recover_ms",
		"bsfs.bg_append_p50_ms", "bsfs.bg_append_late_ms",
		"mr.map_phase_ms", "mr.reduce_phase_ms", "mr.first_fetch_ms", "mr.shuffle_overlap_ms",
		"mr.local_map_ratio", "mr.task_retries", "shuffle.bytes_per_job", "shuffle.stored_per_shuffle_byte",
	} {
		v[name] = extra[name]
	}
	return v
}
