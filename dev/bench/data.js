window.BENCHMARK_DATA = {
  "lastUpdate": 1792706109369,
  "entries": {
    "streamsum e2ebench": [
      {
        "commit": {
          "id": "e1ed4393230ab889bd8ec53f150fad9e6dda41d2",
          "parent": "795e961a17997fbcb94087c7b48447381c68777c",
          "message": "C-SGS work follows what a window changed: a one-point grid cell allocates nothing, and the output stage finds its work from the cells the window wrote"
        },
        "date": 1792261630000,
        "tool": "e2ebench --seconds 20 --trace 0, interleaved parent/change pairs, 2-vCPU box",
        "benches": [
          {"name": "gmti_slide tuples_per_s seed 1", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 199600, "value": 246000, "pairs": 10, "wins": 10},
          {"name": "gmti_slide tuples_per_s seed 2", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 2, "parent": 198400, "value": 249500, "pairs": 6, "wins": 6},
          {"name": "stt_insert tuples_per_s seed 1", "workload": "stt_insert", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 156900, "value": 173800, "pairs": 6, "wins": 6},
          {"name": "match_under_ingest tuples_per_s seed 1", "workload": "match_under_ingest", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 237000, "value": 259300, "pairs": 12, "wins": 11},
          {"name": "match_under_ingest response_p50_ms seed 1", "workload": "match_under_ingest", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.694, "value": 0.721, "pairs": 12, "wins": 5}
        ]
      },
      {
        "commit": {
          "id": "3b82bf53896602d4ecd3852ac64ec3d87db00019",
          "parent": "e1ed4393230ab889bd8ec53f150fad9e6dda41d2",
          "message": "MATCH reads one flat entry per pattern: the alignment bound stops reading a pruned candidate's cells, and the alignment search stops allocating per shift"
        },
        "date": 1792304395000,
        "tool": "e2ebench --seconds 20 --trace 0, interleaved parent/change pairs, 2-vCPU box",
        "benches": [
          {"name": "match_under_ingest response_p50_ms seed 1", "workload": "match_under_ingest", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.556, "value": 0.324, "pairs": 10, "wins": 10},
          {"name": "match_under_ingest response_p50_ms seed 2", "workload": "match_under_ingest", "metric": "response_p50_ms", "unit": "ms", "seed": 2, "parent": 0.584, "value": 0.345, "pairs": 5, "wins": 5},
          {"name": "match_under_ingest response_p50_ms seed 3", "workload": "match_under_ingest", "metric": "response_p50_ms", "unit": "ms", "seed": 3, "parent": 0.649, "value": 0.366, "pairs": 5, "wins": 5}
        ]
      },
      {
        "commit": {
          "id": "a40dfa892ca74869e1d076fb76f9d69bb9be1a85",
          "parent": "80988d5ef32662de642ff2c05bce41ce14cbb50d",
          "message": "A range query steps only through occupied coordinates: a nested, prefix-pruned reachability walk"
        },
        "date": 1792392628267,
        "tool": "e2ebench --seconds 20 --trace 0, interleaved parent/change pairs, 2-vCPU box",
        "benches": [
          {"name": "stt_insert tuples_per_s seed 1", "workload": "stt_insert", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 178946, "value": 203016, "pairs": 10, "wins": 10},
          {"name": "stt_insert tuples_per_s seed 2", "workload": "stt_insert", "metric": "tuples_per_s", "unit": "1/s", "seed": 2, "parent": 174617, "value": 195802, "pairs": 10, "wins": 10},
          {"name": "stt_insert response_p50_ms seed 1", "workload": "stt_insert", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 5.451, "value": 4.815, "pairs": 10, "wins": 10},
          {"name": "stt_insert response_p50_ms seed 2", "workload": "stt_insert", "metric": "response_p50_ms", "unit": "ms", "seed": 2, "parent": 5.515, "value": 4.951, "pairs": 10, "wins": 10},
          {"name": "gmti_slide tuples_per_s seed 1", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 253343, "value": 256519, "pairs": 10, "wins": 6},
          {"name": "served_small tuples_per_s seed 1", "workload": "served_small", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 373014, "value": 362004, "pairs": 10, "wins": 5},
          {"name": "match_under_ingest tuples_per_s seed 1", "workload": "match_under_ingest", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 300972, "value": 289252, "pairs": 16, "wins": 6}
        ]
      },
      {
        "commit": {
          "id": "83ce2c2fefb2b87af61ea14997ed799e861f9c33",
          "parent": "a40dfa892ca74869e1d076fb76f9d69bb9be1a85",
          "message": "A carried cluster's summary is archived once: SGS cells are shared, not copied, from the output stage to the history"
        },
        "date": 1792398819621,
        "tool": "e2ebench --seconds 20 --trace 0, interleaved parent/change pairs, 2-vCPU box",
        "benches": [
          {"name": "gmti_slide peak_rss_mb seed 1", "workload": "gmti_slide", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 90.8, "value": 78.01, "pairs": 10, "wins": 10},
          {"name": "gmti_slide peak_rss_mb seed 2", "workload": "gmti_slide", "metric": "peak_rss_mb", "unit": "MB", "seed": 2, "parent": 90.21, "value": 77.45, "pairs": 10, "wins": 10},
          {"name": "gmti_slide peak_rss_mb seed 3", "workload": "gmti_slide", "metric": "peak_rss_mb", "unit": "MB", "seed": 3, "parent": 89.51, "value": 76.8, "pairs": 6, "wins": 6},
          {"name": "match_under_ingest peak_rss_mb seed 1", "workload": "match_under_ingest", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 60.73, "value": 53.42, "pairs": 10, "wins": 10},
          {"name": "match_under_ingest peak_rss_mb seed 2", "workload": "match_under_ingest", "metric": "peak_rss_mb", "unit": "MB", "seed": 2, "parent": 60.77, "value": 53.75, "pairs": 10, "wins": 10},
          {"name": "gmti_slide tuples_per_s seed 1", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 265428, "value": 278712, "pairs": 10, "wins": 10},
          {"name": "gmti_slide tuples_per_s seed 2", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 2, "parent": 267683, "value": 281915, "pairs": 10, "wins": 10}
        ]
      },
      {
        "commit": {
          "id": "149d73a38fac537e5d6d40f5c7df198a6aae0dd9",
          "parent": "83ce2c2fefb2b87af61ea14997ed799e861f9c33",
          "message": "One lock per hand-off: the scheduler pool, a query's input queue and its output buffer each keep their state under one mutex, and a subscribe can no longer lose a window's wake-up"
        },
        "date": 1792407385570,
        "tool": "e2ebench --seconds 20 --trace 0, interleaved parent/change pairs, 2-vCPU box; no gain claimed",
        "benches": [
          {"name": "served_small tuples_per_s seed 1", "workload": "served_small", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 382038, "value": 377969, "pairs": 40, "wins": 18},
          {"name": "served_small response_p50_ms seed 1", "workload": "served_small", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.228, "value": 0.238, "pairs": 40, "wins": 18},
          {"name": "served_small response_p90_ms seed 1", "workload": "served_small", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.327, "value": 0.333, "pairs": 40, "wins": 19},
          {"name": "served_small tuples_per_s seed 2", "workload": "served_small", "metric": "tuples_per_s", "unit": "1/s", "seed": 2, "parent": 393637, "value": 418015, "pairs": 10, "wins": 6},
          {"name": "served_small response_p50_ms seed 2", "workload": "served_small", "metric": "response_p50_ms", "unit": "ms", "seed": 2, "parent": 0.21, "value": 0.209, "pairs": 10, "wins": 6},
          {"name": "match_under_ingest tuples_per_s seed 1", "workload": "match_under_ingest", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 331582, "value": 339242, "pairs": 10, "wins": 4},
          {"name": "match_under_ingest response_p50_ms seed 1", "workload": "match_under_ingest", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.377, "value": 0.379, "pairs": 10, "wins": 5},
          {"name": "match_under_ingest response_p90_ms seed 1", "workload": "match_under_ingest", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.809, "value": 0.798, "pairs": 10, "wins": 6},
          {"name": "stt_insert tuples_per_s seed 1", "workload": "stt_insert", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 209278, "value": 214377, "pairs": 5, "wins": 4},
          {"name": "stt_insert response_p50_ms seed 1", "workload": "stt_insert", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 4.634, "value": 4.499, "pairs": 5, "wins": 3},
          {"name": "gmti_slide tuples_per_s seed 1", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 299520, "value": 298710, "pairs": 5, "wins": 3},
          {"name": "gmti_slide response_p50_ms seed 1", "workload": "gmti_slide", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.313, "value": 0.311, "pairs": 5, "wins": 3}
        ]
      },
      {
        "commit": {
          "id": "55d93bb8bf35fb39428f568ac68baba4ea588e52",
          "parent": "2307fd0c3d42b12130c12120ee65a4ac22442d28",
          "message": "MATCH evaluates each distinct summary once: the pattern base groups a carried cluster's repeats into one record"
        },
        "date": 1792425292416,
        "tool": "e2ebench --seconds 20 --trace 0, interleaved parent/change pairs, 2-vCPU box",
        "benches": [
          {"name": "match_under_ingest response_p90_ms seed 1", "workload": "match_under_ingest", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.907, "value": 0.414, "pairs": 10, "wins": 10},
          {"name": "match_under_ingest response_p50_ms seed 1", "workload": "match_under_ingest", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.422, "value": 0.209, "pairs": 10, "wins": 10},
          {"name": "match_under_ingest tuples_per_s seed 1", "workload": "match_under_ingest", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 295585, "value": 333343, "pairs": 10, "wins": 9},
          {"name": "match_under_ingest peak_rss_mb seed 1", "workload": "match_under_ingest", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 53.49, "value": 52.96, "pairs": 10, "wins": 10},
          {"name": "match_under_ingest response_p90_ms seed 2", "workload": "match_under_ingest", "metric": "response_p90_ms", "unit": "ms", "seed": 2, "parent": 0.779, "value": 0.382, "pairs": 10, "wins": 10},
          {"name": "match_under_ingest response_p50_ms seed 2", "workload": "match_under_ingest", "metric": "response_p50_ms", "unit": "ms", "seed": 2, "parent": 0.422, "value": 0.221, "pairs": 10, "wins": 10},
          {"name": "match_under_ingest tuples_per_s seed 2", "workload": "match_under_ingest", "metric": "tuples_per_s", "unit": "1/s", "seed": 2, "parent": 306092, "value": 333322, "pairs": 10, "wins": 10},
          {"name": "match_under_ingest peak_rss_mb seed 2", "workload": "match_under_ingest", "metric": "peak_rss_mb", "unit": "MB", "seed": 2, "parent": 53.72, "value": 52.97, "pairs": 10, "wins": 8},
          {"name": "stt_insert peak_rss_mb seed 1", "workload": "stt_insert", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 80.53, "value": 80.37, "pairs": 6, "wins": 6},
          {"name": "stt_insert tuples_per_s seed 1", "workload": "stt_insert", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 212707, "value": 211993, "pairs": 6, "wins": 4},
          {"name": "stt_insert response_p50_ms seed 1", "workload": "stt_insert", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 4.542, "value": 4.529, "pairs": 6, "wins": 4},
          {"name": "stt_insert peak_rss_mb seed 2", "workload": "stt_insert", "metric": "peak_rss_mb", "unit": "MB", "seed": 2, "parent": 80.53, "value": 80.42, "pairs": 5, "wins": 5},
          {"name": "stt_insert tuples_per_s seed 2", "workload": "stt_insert", "metric": "tuples_per_s", "unit": "1/s", "seed": 2, "parent": 216252, "value": 218121, "pairs": 5, "wins": 4},
          {"name": "gmti_slide tuples_per_s seed 1", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 276804, "value": 281900, "pairs": 5, "wins": 3},
          {"name": "gmti_slide response_p50_ms seed 1", "workload": "gmti_slide", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.34, "value": 0.336, "pairs": 5, "wins": 2},
          {"name": "gmti_slide peak_rss_mb seed 1", "workload": "gmti_slide", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 77.94, "value": 77.76, "pairs": 5, "wins": 5},
          {"name": "gmti_slide tuples_per_s seed 2", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 2, "parent": 286645, "value": 290757, "pairs": 5, "wins": 4},
          {"name": "gmti_slide peak_rss_mb seed 2", "workload": "gmti_slide", "metric": "peak_rss_mb", "unit": "MB", "seed": 2, "parent": 77.51, "value": 76.84, "pairs": 5, "wins": 5},
          {"name": "served_small tuples_per_s seed 1", "workload": "served_small", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 379733, "value": 391322, "pairs": 20, "wins": 12},
          {"name": "served_small response_p50_ms seed 1", "workload": "served_small", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.246, "value": 0.236, "pairs": 20, "wins": 11},
          {"name": "served_small response_p90_ms seed 1", "workload": "served_small", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.322, "value": 0.319, "pairs": 20, "wins": 10},
          {"name": "served_small peak_rss_mb seed 1", "workload": "served_small", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 37.9, "value": 38.33, "pairs": 20, "wins": 0}
        ]
      },
      {
        "commit": {
          "id": "c83045341f5418a6ecbf73b60c13ddbc5fcab1cf",
          "parent": "55d93bb8bf35fb39428f568ac68baba4ea588e52",
          "message": "The product crates hold only what the product runs: the paper's baselines move into sgs-bench, and the API only they carried goes"
        },
        "date": 1792429257110,
        "tool": "e2ebench --seconds 20 --trace 0, interleaved parent/change pairs, 2-vCPU box; no gain claimed",
        "benches": [
          {"name": "served_small tuples_per_s seed 1", "workload": "served_small", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 374831, "value": 355630, "pairs": 20, "wins": 9},
          {"name": "served_small response_p50_ms seed 1", "workload": "served_small", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.251, "value": 0.257, "pairs": 20, "wins": 10},
          {"name": "served_small response_p90_ms seed 1", "workload": "served_small", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.333, "value": 0.335, "pairs": 20, "wins": 12},
          {"name": "served_small peak_rss_mb seed 1", "workload": "served_small", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 38.37, "value": 38.35, "pairs": 20, "wins": 12},
          {"name": "match_under_ingest tuples_per_s seed 1", "workload": "match_under_ingest", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 328465, "value": 329088, "pairs": 6, "wins": 3},
          {"name": "match_under_ingest response_p50_ms seed 1", "workload": "match_under_ingest", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.215, "value": 0.217, "pairs": 6, "wins": 3},
          {"name": "match_under_ingest response_p90_ms seed 1", "workload": "match_under_ingest", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.391, "value": 0.406, "pairs": 6, "wins": 3},
          {"name": "match_under_ingest peak_rss_mb seed 1", "workload": "match_under_ingest", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 52.91, "value": 52.94, "pairs": 6, "wins": 2},
          {"name": "stt_insert tuples_per_s seed 1", "workload": "stt_insert", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 208924, "value": 212898, "pairs": 6, "wins": 4},
          {"name": "stt_insert response_p50_ms seed 1", "workload": "stt_insert", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 4.631, "value": 4.533, "pairs": 6, "wins": 6},
          {"name": "stt_insert response_p90_ms seed 1", "workload": "stt_insert", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 6.306, "value": 6.189, "pairs": 6, "wins": 3},
          {"name": "stt_insert peak_rss_mb seed 1", "workload": "stt_insert", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 80.54, "value": 80.57, "pairs": 6, "wins": 2},
          {"name": "gmti_slide tuples_per_s seed 1", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 292998, "value": 287976, "pairs": 6, "wins": 2},
          {"name": "gmti_slide response_p50_ms seed 1", "workload": "gmti_slide", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.323, "value": 0.326, "pairs": 6, "wins": 4},
          {"name": "gmti_slide response_p90_ms seed 1", "workload": "gmti_slide", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.44, "value": 0.45, "pairs": 6, "wins": 2},
          {"name": "gmti_slide peak_rss_mb seed 1", "workload": "gmti_slide", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 77.81, "value": 77.78, "pairs": 6, "wins": 3}
        ]
      },
      {
        "commit": {
          "id": "a6515c6c6276723632dc4d62f540eb1dc7b72064",
          "parent": "c83045341f5418a6ecbf73b60c13ddbc5fcab1cf",
          "message": "A kept summary is two blocks, not one per core cell: SGS connections live in one array per summary, and C-SGS keeps its output buffers across windows"
        },
        "date": 1792438753522,
        "tool": "e2ebench --seconds 20 --trace 0, interleaved parent/change pairs, 2-vCPU box; claim: gmti_slide peak_rss_mb",
        "benches": [
          {"name": "gmti_slide peak_rss_mb seed 1", "workload": "gmti_slide", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 77.79, "value": 72.18, "pairs": 10, "wins": 10},
          {"name": "gmti_slide tuples_per_s seed 1", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 261291, "value": 279076, "pairs": 10, "wins": 10},
          {"name": "gmti_slide response_p50_ms seed 1", "workload": "gmti_slide", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.365, "value": 0.34, "pairs": 10, "wins": 9},
          {"name": "gmti_slide response_p90_ms seed 1", "workload": "gmti_slide", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.48, "value": 0.462, "pairs": 10, "wins": 8},
          {"name": "gmti_slide peak_rss_mb seed 2", "workload": "gmti_slide", "metric": "peak_rss_mb", "unit": "MB", "seed": 2, "parent": 76.86, "value": 71.64, "pairs": 5, "wins": 5},
          {"name": "gmti_slide tuples_per_s seed 2", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 2, "parent": 275050, "value": 273639, "pairs": 5, "wins": 2},
          {"name": "stt_insert tuples_per_s seed 1", "workload": "stt_insert", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 205038, "value": 210982, "pairs": 6, "wins": 6},
          {"name": "stt_insert response_p50_ms seed 1", "workload": "stt_insert", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 4.757, "value": 4.61, "pairs": 6, "wins": 5},
          {"name": "stt_insert response_p90_ms seed 1", "workload": "stt_insert", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 6.419, "value": 6.289, "pairs": 6, "wins": 5},
          {"name": "stt_insert peak_rss_mb seed 1", "workload": "stt_insert", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 80.51, "value": 80.46, "pairs": 6, "wins": 5},
          {"name": "stt_insert setup_s seed 1", "workload": "stt_insert", "metric": "setup_s", "unit": "s", "seed": 1, "parent": 0.1688, "value": 0.1683, "pairs": 6, "wins": 4},
          {"name": "match_under_ingest tuples_per_s seed 1", "workload": "match_under_ingest", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 322550, "value": 333413, "pairs": 10, "wins": 7},
          {"name": "match_under_ingest response_p50_ms seed 1", "workload": "match_under_ingest", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.224, "value": 0.223, "pairs": 10, "wins": 4},
          {"name": "match_under_ingest response_p90_ms seed 1", "workload": "match_under_ingest", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.436, "value": 0.441, "pairs": 10, "wins": 5},
          {"name": "match_under_ingest peak_rss_mb seed 1", "workload": "match_under_ingest", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 52.99, "value": 49.58, "pairs": 10, "wins": 10},
          {"name": "served_small tuples_per_s seed 1", "workload": "served_small", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 354018, "value": 354640, "pairs": 10, "wins": 8},
          {"name": "served_small response_p50_ms seed 1", "workload": "served_small", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.274, "value": 0.271, "pairs": 10, "wins": 8},
          {"name": "served_small response_p90_ms seed 1", "workload": "served_small", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.346, "value": 0.347, "pairs": 10, "wins": 6},
          {"name": "served_small peak_rss_mb seed 1", "workload": "served_small", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 38.33, "value": 36.76, "pairs": 10, "wins": 10}
        ]
      },
      {
        "commit": {
          "id": "7040fc220c9c98713fec78c3ba8c5734370a4a53",
          "parent": "a6515c6c6276723632dc4d62f540eb1dc7b72064",
          "message": "A summary's cells have one form: SkeletalCell and its conversions go, and CellsBuilder is the one way to make a cell list"
        },
        "date": 1792448294547,
        "tool": "e2ebench --seconds 20 --trace 0, interleaved parent/change pairs, 2-vCPU box; no gain claimed",
        "benches": [
          {"name": "gmti_slide tuples_per_s seed 1", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 286546, "value": 280826, "pairs": 10, "wins": 5},
          {"name": "gmti_slide response_p50_ms seed 1", "workload": "gmti_slide", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.327, "value": 0.338, "pairs": 10, "wins": 4},
          {"name": "gmti_slide response_p90_ms seed 1", "workload": "gmti_slide", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.464, "value": 0.466, "pairs": 10, "wins": 6},
          {"name": "gmti_slide peak_rss_mb seed 1", "workload": "gmti_slide", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 72.16, "value": 72.02, "pairs": 10, "wins": 10},
          {"name": "stt_insert tuples_per_s seed 1", "workload": "stt_insert", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 205626, "value": 210677, "pairs": 5, "wins": 4},
          {"name": "stt_insert response_p50_ms seed 1", "workload": "stt_insert", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 4.7, "value": 4.552, "pairs": 5, "wins": 4},
          {"name": "stt_insert response_p90_ms seed 1", "workload": "stt_insert", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 6.551, "value": 6.43, "pairs": 5, "wins": 4},
          {"name": "stt_insert peak_rss_mb seed 1", "workload": "stt_insert", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 80.57, "value": 80.46, "pairs": 5, "wins": 5},
          {"name": "match_under_ingest tuples_per_s seed 1", "workload": "match_under_ingest", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 296596, "value": 290881, "pairs": 5, "wins": 2},
          {"name": "match_under_ingest response_p50_ms seed 1", "workload": "match_under_ingest", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.27, "value": 0.273, "pairs": 5, "wins": 1},
          {"name": "match_under_ingest response_p90_ms seed 1", "workload": "match_under_ingest", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.545, "value": 0.525, "pairs": 5, "wins": 2},
          {"name": "match_under_ingest peak_rss_mb seed 1", "workload": "match_under_ingest", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 49.57, "value": 49.56, "pairs": 5, "wins": 2},
          {"name": "served_small tuples_per_s seed 1", "workload": "served_small", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 370869, "value": 370305, "pairs": 10, "wins": 4},
          {"name": "served_small response_p50_ms seed 1", "workload": "served_small", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.259, "value": 0.246, "pairs": 10, "wins": 5},
          {"name": "served_small response_p90_ms seed 1", "workload": "served_small", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.344, "value": 0.347, "pairs": 10, "wins": 5},
          {"name": "served_small peak_rss_mb seed 1", "workload": "served_small", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 36.85, "value": 36.68, "pairs": 10, "wins": 7}
        ]
      },
      {
        "commit": {
          "id": "f9dc2b38f66918edcda3c91172692ccc30e5c104",
          "parent": "05812a75dead6f8d1cbc4c0568bf837c68f55581",
          "message": "A summary's cell is the paper's 8.2 cell: coordinates live in one i32 block, so a 2-d cell is 16 B instead of 40"
        },
        "date": 1792483200000,
        "tool": "e2ebench --seconds 20 --trace 0, interleaved parent/change pairs alternating which runs first, 2-vCPU box; claim: gmti_slide peak_rss_mb",
        "benches": [
          {"name": "gmti_slide peak_rss_mb seed 1", "workload": "gmti_slide", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 72.09, "value": 66.24, "pairs": 10, "wins": 10},
          {"name": "gmti_slide tuples_per_s seed 1", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 284282, "value": 294290, "pairs": 10, "wins": 10},
          {"name": "gmti_slide response_p50_ms seed 1", "workload": "gmti_slide", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.333, "value": 0.32, "pairs": 10, "wins": 8},
          {"name": "gmti_slide response_p90_ms seed 1", "workload": "gmti_slide", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.439, "value": 0.426, "pairs": 10, "wins": 6},
          {"name": "gmti_slide peak_rss_mb seed 2", "workload": "gmti_slide", "metric": "peak_rss_mb", "unit": "MB", "seed": 2, "parent": 71.55, "value": 66.43, "pairs": 5, "wins": 5},
          {"name": "gmti_slide tuples_per_s seed 2", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 2, "parent": 287481, "value": 283163, "pairs": 5, "wins": 3},
          {"name": "gmti_slide response_p50_ms seed 2", "workload": "gmti_slide", "metric": "response_p50_ms", "unit": "ms", "seed": 2, "parent": 0.333, "value": 0.337, "pairs": 5, "wins": 3},
          {"name": "gmti_slide response_p90_ms seed 2", "workload": "gmti_slide", "metric": "response_p90_ms", "unit": "ms", "seed": 2, "parent": 0.451, "value": 0.448, "pairs": 5, "wins": 4},
          {"name": "match_under_ingest peak_rss_mb seed 1", "workload": "match_under_ingest", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 49.57, "value": 45.84, "pairs": 10, "wins": 10},
          {"name": "match_under_ingest tuples_per_s seed 1", "workload": "match_under_ingest", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 279845, "value": 282379, "pairs": 10, "wins": 6},
          {"name": "match_under_ingest response_p50_ms seed 1", "workload": "match_under_ingest", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.249, "value": 0.251, "pairs": 10, "wins": 5},
          {"name": "match_under_ingest response_p90_ms seed 1", "workload": "match_under_ingest", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.477, "value": 0.507, "pairs": 10, "wins": 3},
          {"name": "stt_insert peak_rss_mb seed 1", "workload": "stt_insert", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 80.62, "value": 80.66, "pairs": 6, "wins": 3},
          {"name": "stt_insert tuples_per_s seed 1", "workload": "stt_insert", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 214862, "value": 213018, "pairs": 6, "wins": 2},
          {"name": "stt_insert response_p50_ms seed 1", "workload": "stt_insert", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 4.536, "value": 4.533, "pairs": 6, "wins": 4},
          {"name": "stt_insert response_p90_ms seed 1", "workload": "stt_insert", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 6.145, "value": 6.185, "pairs": 6, "wins": 3},
          {"name": "stt_insert setup_s seed 1", "workload": "stt_insert", "metric": "setup_s", "unit": "s", "seed": 1, "parent": 0.1697, "value": 0.1674, "pairs": 6, "wins": 5},
          {"name": "served_small peak_rss_mb seed 1", "workload": "served_small", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 36.76, "value": 34.61, "pairs": 10, "wins": 10},
          {"name": "served_small tuples_per_s seed 1", "workload": "served_small", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 360364, "value": 370958, "pairs": 10, "wins": 8},
          {"name": "served_small response_p50_ms seed 1", "workload": "served_small", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.265, "value": 0.255, "pairs": 10, "wins": 7},
          {"name": "served_small response_p90_ms seed 1", "workload": "served_small", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.348, "value": 0.339, "pairs": 10, "wins": 6}
        ]
      },
      {
        "commit": {
          "id": "834c76eb3010d928386e2380c094fe7216ac32e8",
          "parent": "f9dc2b38f66918edcda3c91172692ccc30e5c104",
          "message": "Delete byte-budget retention: an archived pattern keeps the resolution it was archived at, the WAL has two record kinds, and PatternBase is append-only"
        },
        "date": 1792513566383,
        "tool": "e2ebench --seconds 20 --trace 0, interleaved parent/change pairs alternating which runs first, 2-vCPU box; no gain claimed",
        "benches": [
          {"name": "stt_insert tuples_per_s seed 1", "workload": "stt_insert", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 213073, "value": 211311, "pairs": 5, "wins": 2},
          {"name": "stt_insert response_p50_ms seed 1", "workload": "stt_insert", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 4.586, "value": 4.548, "pairs": 5, "wins": 2},
          {"name": "stt_insert response_p90_ms seed 1", "workload": "stt_insert", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 6.154, "value": 6.301, "pairs": 5, "wins": 1},
          {"name": "stt_insert peak_rss_mb seed 1", "workload": "stt_insert", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 80.56, "value": 80.36, "pairs": 5, "wins": 5},
          {"name": "gmti_slide tuples_per_s seed 1", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 267643, "value": 268763, "pairs": 5, "wins": 2},
          {"name": "gmti_slide response_p50_ms seed 1", "workload": "gmti_slide", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.357, "value": 0.357, "pairs": 5, "wins": 2},
          {"name": "gmti_slide response_p90_ms seed 1", "workload": "gmti_slide", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.471, "value": 0.479, "pairs": 5, "wins": 2},
          {"name": "gmti_slide peak_rss_mb seed 1", "workload": "gmti_slide", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 66.27, "value": 66.22, "pairs": 5, "wins": 2},
          {"name": "match_under_ingest tuples_per_s seed 1", "workload": "match_under_ingest", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 251518, "value": 270915, "pairs": 5, "wins": 3},
          {"name": "match_under_ingest response_p50_ms seed 1", "workload": "match_under_ingest", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.268, "value": 0.27, "pairs": 5, "wins": 2},
          {"name": "match_under_ingest response_p90_ms seed 1", "workload": "match_under_ingest", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.571, "value": 0.565, "pairs": 5, "wins": 3},
          {"name": "match_under_ingest peak_rss_mb seed 1", "workload": "match_under_ingest", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 45.86, "value": 45.79, "pairs": 5, "wins": 5},
          {"name": "served_small tuples_per_s seed 1", "workload": "served_small", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 397211, "value": 389766, "pairs": 10, "wins": 4},
          {"name": "served_small response_p50_ms seed 1", "workload": "served_small", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.234, "value": 0.234, "pairs": 10, "wins": 5},
          {"name": "served_small response_p90_ms seed 1", "workload": "served_small", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.316, "value": 0.321, "pairs": 10, "wins": 3},
          {"name": "served_small peak_rss_mb seed 1", "workload": "served_small", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 34.66, "value": 34.62, "pairs": 10, "wins": 5}
        ]
      },
      {
        "commit": {
          "id": null,
          "parent": "834c76eb3010d928386e2380c094fe7216ac32e8",
          "message": "The window engine passes each point to insert by reference: the segment buffer, WindowEngine::flush and the per-tuple clones in front of C-SGS go"
        },
        "date": 1792706109369,
        "tool": "e2ebench --seconds 20 --trace 0, interleaved parent/change pairs alternating which runs first, 2-vCPU box; no gain claimed",
        "benches": [
          {"name": "stt_insert tuples_per_s seed 1", "workload": "stt_insert", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 223210, "value": 223279, "pairs": 10, "wins": 5},
          {"name": "stt_insert response_p50_ms seed 1", "workload": "stt_insert", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 4.336, "value": 4.325, "pairs": 10, "wins": 4},
          {"name": "stt_insert response_p90_ms seed 1", "workload": "stt_insert", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 5.922, "value": 5.951, "pairs": 10, "wins": 3},
          {"name": "stt_insert peak_rss_mb seed 1", "workload": "stt_insert", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 80.58, "value": 80.45, "pairs": 10, "wins": 8},
          {"name": "gmti_slide tuples_per_s seed 1", "workload": "gmti_slide", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 299730, "value": 299865, "pairs": 10, "wins": 4},
          {"name": "gmti_slide response_p50_ms seed 1", "workload": "gmti_slide", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.318, "value": 0.316, "pairs": 10, "wins": 4},
          {"name": "gmti_slide response_p90_ms seed 1", "workload": "gmti_slide", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.433, "value": 0.431, "pairs": 10, "wins": 7},
          {"name": "gmti_slide peak_rss_mb seed 1", "workload": "gmti_slide", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 66.2, "value": 66.05, "pairs": 10, "wins": 10},
          {"name": "match_under_ingest tuples_per_s seed 1", "workload": "match_under_ingest", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 274042, "value": 279704, "pairs": 10, "wins": 5},
          {"name": "match_under_ingest response_p50_ms seed 1", "workload": "match_under_ingest", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.278, "value": 0.28, "pairs": 10, "wins": 5},
          {"name": "match_under_ingest response_p90_ms seed 1", "workload": "match_under_ingest", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.571, "value": 0.578, "pairs": 10, "wins": 4},
          {"name": "match_under_ingest peak_rss_mb seed 1", "workload": "match_under_ingest", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 45.85, "value": 45.72, "pairs": 10, "wins": 7},
          {"name": "served_small tuples_per_s seed 1", "workload": "served_small", "metric": "tuples_per_s", "unit": "1/s", "seed": 1, "parent": 405169, "value": 440034, "pairs": 10, "wins": 6},
          {"name": "served_small response_p50_ms seed 1", "workload": "served_small", "metric": "response_p50_ms", "unit": "ms", "seed": 1, "parent": 0.235, "value": 0.212, "pairs": 10, "wins": 7},
          {"name": "served_small response_p90_ms seed 1", "workload": "served_small", "metric": "response_p90_ms", "unit": "ms", "seed": 1, "parent": 0.308, "value": 0.283, "pairs": 10, "wins": 7},
          {"name": "served_small peak_rss_mb seed 1", "workload": "served_small", "metric": "peak_rss_mb", "unit": "MB", "seed": 1, "parent": 34.59, "value": 34.73, "pairs": 10, "wins": 3}
        ]
      }
    ]
  }
}
