window.BENCHMARK_DATA = {
  "lastUpdate": 1792392628267,
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
          "id": null,
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
      }
    ]
  }
}
