package repro.core

/** Hyperparameters, mirroring paper Table III (dimensions scaled with the
  * IR dimensionality — the paper uses 300-dim IRs with hidden 200 / latent
  * 100; we use 64-dim IRs with hidden 64 / latent 32, the same ~3:2:1 shape).
  */
final case class VaerConfig(
    irDim: Int = 64,
    hidden: Int = 64,       // paper: 200
    latent: Int = 32,       // paper: 100
    margin: Double = 0.5,   // paper: M = .5
    lr: Double = 0.001,     // paper: Adam, 0.001
    vaeEpochs: Int = 12,
    vaeBatch: Int = 64,
    matchEpochs: Int = 30,
    matchBatch: Int = 32,
    matchMinSteps: Int = 600, // floor on optimizer steps so small pools still converge
    matchHidden: Int = 32,
    alSamplesPerIter: Int = 10, // paper: 10
    topK: Int = 10,             // paper: K = 10
    kdeSamplesPerPair: Int = 100,
)
