// Command mnnfast-qa is an interactive question-answering demo: it
// loads (or trains) a memory network, then reads story sentences and
// questions from stdin. Lines ending in '?' are questions; other lines
// are appended to the story memory; "reset" clears the story, "quit"
// exits.
//
// Usage:
//
//	mnnfast-qa                       # train a small model, then chat
//	mnnfast-qa -model model.gob      # use a model saved by mnnfast-train
//
// Example session:
//
//	> john went to the kitchen
//	> mary went to the garden
//	> where is mary?
//	garden
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"mnnfast/internal/babi"
	"mnnfast/internal/memnn"
	"mnnfast/internal/vocab"
)

func main() {
	var (
		modelPath = flag.String("model", "", "load a model saved by mnnfast-train (default: train one now)")
		threshold = flag.Float64("skip", 0, "zero-skipping threshold (0 = exact inference)")
	)
	flag.Parse()

	model, corpus, err := obtainModel(*modelPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnnfast-qa:", err)
		os.Exit(1)
	}
	fmt.Printf("ready: vocab %d words, answers %v\n", corpus.Vocab.Size(), corpus.Answers)
	fmt.Println("type story sentences; end questions with '?'; 'reset' clears; 'quit' exits")

	var story babi.Story
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == "quit" || line == "exit":
			return
		case line == "reset":
			story = babi.Story{}
			fmt.Println("story cleared")
			continue
		}
		if strings.HasSuffix(line, "?") {
			if len(story.Sentences) == 0 {
				fmt.Println("tell me a story first")
				continue
			}
			q := story
			q.Question = vocab.Tokenize(line)
			ex, err := corpus.VectorizeStory(q)
			if err != nil {
				fmt.Println("sorry:", err)
				continue
			}
			ans := model.PredictGated(ex, float32(*threshold), memnn.ExitPolicy{}, new(memnn.Forward), nil, nil)
			fmt.Println(corpus.AnswerWord(ans))
			continue
		}
		words := vocab.Tokenize(line)
		if _, err := corpus.Vocab.EncodeStrict(words); err != nil {
			fmt.Println("sorry:", err)
			continue
		}
		story.Sentences = append(story.Sentences, words)
	}
}

func obtainModel(path string) (*memnn.Model, *memnn.Corpus, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		return memnn.Load(f)
	}
	fmt.Println("no -model given; training a small single-fact model (a few seconds)...")
	opt := babi.GenOptions{Stories: 600, StoryLen: 12, People: 6, Locations: 6}
	d := babi.Generate(babi.TaskSingleFact, opt, rand.New(rand.NewSource(7)))
	train, test := d.Split(0.9)
	corpus := memnn.BuildCorpus(train, test, 0)
	model, err := memnn.NewModel(memnn.Config{
		Dim: 24, Hops: 2,
		Vocab:   corpus.Vocab.Size(),
		Answers: len(corpus.Answers),
		MaxSent: corpus.MaxSent,
	}, rand.New(rand.NewSource(7)))
	if err != nil {
		return nil, nil, err
	}
	topt := memnn.DefaultTrainOptions()
	topt.Epochs = 40
	if _, err := model.Train(corpus.Train, topt); err != nil {
		return nil, nil, err
	}
	fmt.Printf("trained: test accuracy %.2f\n", model.Accuracy(corpus.Test, 0))
	return model, corpus, nil
}
