package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// specJSON freezes the benchmark's sizes, rates and limits. Its prose
// fields (the metric map, the per-layer interactions, dropped metrics)
// are for readers; the program reads the fields below.
//
//go:embed spec.json
var specJSON []byte

type spec struct {
	EndToEnd      []string `json:"endToEnd"`
	PerLayer      []string `json:"perLayer"`
	WarmupSeconds float64  `json:"warmupSeconds"`
	Harvest       harvestSpec
	Search        searchSpec
	Ingest        ingestSpec
	Smoke         struct {
		WarmupSeconds float64 `json:"warmupSeconds"`
		Harvest       harvestSpec
		Search        searchSpec
		Ingest        ingestSpec
	}
}

// corpusSpec sizes a synthetic researchers corpus and the evaluation
// environment (classifiers trained on the domain half) built over it. The
// corpus seed is fixed: --seed varies the traffic (target order, query
// draws, op mix), not the data set, so runs with different seeds measure
// the same system.
type corpusSpec struct {
	Seed           uint64   `json:"corpusSeed"`
	Entities       int      `json:"entities"`
	PagesPerEntity int      `json:"pagesPerEntity"`
	DomainSample   int      `json:"domainSample"`
	Aspects        []string `json:"aspects"`
}

type harvestSpec struct {
	corpusSpec
	Queries       int `json:"queries"`
	Submitters    int `json:"submitters"`
	GateSample    int `json:"gateSample"`
	YieldEntities int `json:"yieldEntities"`
}

// replaySpec sizes the recorded L2QBAL harvests whose seed ∥ query
// sequences the search and query ops replay.
type replaySpec struct {
	Sessions int     `json:"sessions"`
	Queries  int     `json:"queries"`
	ZipfS    float64 `json:"zipfS"`
	Ks       []int   `json:"ks"`
}

type searchSpec struct {
	corpusSpec
	Replay        replaySpec `json:"replay"`
	Rate          float64    `json:"rate"`
	RetrieveShare float64    `json:"retrieveShare"`
	Lanes         int        `json:"lanes"`
	Workers       int        `json:"workers"`
}

type ingestSpec struct {
	corpusSpec
	Replay      replaySpec `json:"replay"`
	BatchRate   float64    `json:"batchRate"`
	BatchPages  int        `json:"batchPages"`
	QueryRate   float64    `json:"queryRate"`
	DonorMargin float64    `json:"donorMargin"`
	GateQueries int        `json:"gateQueries"`
}

func loadSpec() (*spec, error) {
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &sp, nil
}

// forRun returns the spec a run uses: the smoke sizes when asked for.
func (sp *spec) forRun(o options) *spec {
	if !o.smoke {
		return sp
	}
	cp := *sp
	cp.WarmupSeconds = sp.Smoke.WarmupSeconds
	cp.Harvest, cp.Search, cp.Ingest = sp.Smoke.Harvest, sp.Smoke.Search, sp.Smoke.Ingest
	return &cp
}
