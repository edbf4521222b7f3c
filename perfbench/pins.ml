(* Hex-float digests of the workloads the conformance golden tables do
   not cover, at the default seed 42 and full scale.  Regenerate with
   `bench.exe --workload <name> --print-digests` after an intentional
   numeric change. *)

let digests =
  [
    ("walk-k100/RAND/mean", "0x1.7d27ae147ae14p+11");
    ("walk-k100/RAND/stddev", "0x1.3ba6b5b856445p+11");
    ("walk-k100/PROB/mean", "0x1.019cccccccccdp+12");
    ("walk-k100/PROB/stddev", "0x1.56600c7b78c75p+11");
    ("walk-k100/HEEB/mean", "0x1.1ae11eb851eb8p+13");
    ("walk-k100/HEEB/stddev", "0x1.4160adedfcd44p+12");
    ("floor-fe10/RAND/mean", "0x1.31aaaaaaaaaabp+8");
    ("floor-fe10/RAND/stddev", "0x1.4d735d89abffdp+4");
    ("floor-fe10/PROB/mean", "0x1.36p+8");
    ("floor-fe10/PROB/stddev", "0x1.b2f3ef5ac209cp+4");
    ("floor-fe10/LIFE/mean", "0x1.36p+8");
    ("floor-fe10/LIFE/stddev", "0x1.b2f3ef5ac209cp+4");
    ("floor-fe10/HEEB/mean", "0x1.4155555555555p+8");
    ("floor-fe10/HEEB/stddev", "0x1.b06516f01124p+4");
    ("floor-fe10/FLOWEXPECT/mean", "0x1.47aaaaaaaaaabp+8");
    ("floor-fe10/FLOWEXPECT/stddev", "0x1.d05e1fa617053p+4");
    ("floor-fe10/OPT-OFFLINE/mean", "0x1.93aaaaaaaaaabp+8");
    ("floor-fe10/OPT-OFFLINE/stddev", "0x1.8d378c579c4aep+4");
  ]
